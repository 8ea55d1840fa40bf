"""Jordan curves, arclength quadrature, and interaction weights.

Curves are stored as parametrization samples gamma(t_j) with derivatives
at N uniform parameters t_j = 2 pi j / N, N = DEFAULT_NODES unless given;
sampled curves and weight tables must sit on that grid too.  Circles and
ellipses resample exactly; sampled curves and weight tables share one
trigonometric interpolant of their native samples, evaluated exactly at
any node count, so the even nodes of 2N values are the N values.  A weight
is its source (a constant, a table or a callable), read at any node count
by one sampler into one finite value per parameter.  Each sampled input
reports the Fourier tail of its samples (sample_tails): a slow tail (a
kink, a jump) is the interpolation error no node count removes.  Line
integrals use the periodic trapezoid rule, ds_j = (2pi/N) |gamma'(t_j)|:
spectral on smooth closed curves, exact on circle harmonics.  Simplicity
(no self-intersection) and C^{1,1} regularity of sampled data are assumed, not verified.

File formats (whitespace separated, %.17g, radians; '#' starts a comment):

    curve:   header "# jordan-curve v1", rows "t x y dx dy"
    weight:  header "# weight v1",       rows "t v"
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
import numpy as np

__all__ = [
    "JordanCurve",
    "WeightedCurve",
    "make_circle",
    "make_ellipse",
    "arclength_rule",
    "load_weight",
    "load_curve",
    "save_curve",
    "save_weight",
    "quadrature_size",
]

DEFAULT_NODES = 1024
MIN_NODES = 16

SIGN_NONNEGATIVE = "nonnegative"
SIGN_NONPOSITIVE = "nonpositive"
SIGN_INDEFINITE = "indefinite"

_SIGN_ZERO_TOL = 1e-14
_CLOSURE_TOL = 1e-9

CURVE_HEADER = "# jordan-curve v1"
WEIGHT_HEADER = "# weight v1"


def quadrature_size(n: int | None = None) -> int:
    """n, or DEFAULT_NODES for None; fewer than MIN_NODES nodes are rejected."""
    n = DEFAULT_NODES if n is None else n
    if n < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} nodes, got {n}")
    return n


def _uniform_params(n: int) -> np.ndarray:
    return np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)


def _require_uniform_grid(name, t: np.ndarray) -> None:
    if np.max(np.abs(t - _uniform_params(t.size))) > 1e-9:
        raise ValueError(f"{name}: samples must sit on the uniform grid 2*pi*j/N")


@dataclass(frozen=True)
class _PeriodicInterp:
    """Trigonometric interpolant of uniform samples (rows; columns apart), called at n uniform nodes.

    The FFT coefficients, taken once, fold mod n and one inverse FFT
    evaluates the interpolant exactly at the n nodes.  The spectrum is
    never truncated to n, so every n samples the same function.  The real
    part splits the Nyquist term of an even sample count between +M/2 and
    -M/2: its coefficient is real, so it contributes c cos(M t / 2).
    """

    samples: np.ndarray

    @cached_property
    def _coef(self) -> np.ndarray:
        return np.fft.fft(self.samples, axis=0) / self.samples.shape[0]

    def __call__(self, n: int) -> np.ndarray:
        m, cols = self.samples.shape[0], self.samples.shape[1:]
        if n == m:
            return self.samples.copy()
        # Frequency f (coef[:h] holds f >= 0) fills slot f mod n of whole rows of n, zero-padded between
        # the signs; rows summed in order from zero add each slot's terms as np.add.at would.
        h = (m + 1) // 2
        gap = np.zeros(((-m) % n,) + cols, dtype=complex)
        rows = np.concatenate([self._coef[:h], gap, self._coef[h:]]).reshape((-1, n) + cols)
        return np.fft.ifft(np.add.reduce(rows, axis=0, initial=0), axis=0).real * n

    def tail(self) -> float:
        """Largest |coefficient| over the top quarter of frequencies 0..M/2, relative to the largest, worst column."""
        half = self.samples.shape[0] // 2 + 1
        coef = np.abs(self._coef[:half].reshape(half, -1))
        top, peak = coef[half * 3 // 4 :].max(axis=0), coef.max(axis=0)
        return float(np.max(np.divide(top, peak, out=np.zeros_like(top), where=peak > 0)))


@dataclass(frozen=True)
class JordanCurve:
    """Closed parametrized planar curve sampled at uniform parameters."""

    kind: str  # "circle" | "ellipse" | "sampled"
    params: np.ndarray  # (N,)
    points: np.ndarray  # (N, 2)
    derivs: np.ndarray  # (N, 2)
    meta: tuple  # analytic parameters, e.g. (("r", 1.0),)

    def __post_init__(self):
        speeds = np.hypot(self.derivs[:, 0], self.derivs[:, 1])
        if np.any(speeds <= 0.0):
            raise ValueError("curve is not regular: |gamma'| vanishes at a node")
        _require_uniform_grid("curve", self.params)
        for arr in (self.params, self.points, self.derivs):
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.params.size

    def resample(self, n: int) -> "JordanCurve":
        """Same curve on n uniform nodes."""
        if n == self.n_nodes:
            return self
        if self.kind == "circle":
            return make_circle(dict(self.meta)["r"], n=n)
        if self.kind == "ellipse":
            m = dict(self.meta)
            return make_ellipse(m["a"], m["b"], n=n)
        cols = self._interp(n)
        return JordanCurve("sampled", _uniform_params(n), cols[:, :2], cols[:, 2:], self.meta)

    @cached_property
    def _interp(self) -> _PeriodicInterp:
        return _PeriodicInterp(np.column_stack([self.points, self.derivs]))

    def describe(self) -> str:
        items = ", ".join(f"{k}={v}" for k, v in self.meta)
        return f"{self.kind}({items})" if items else self.kind


def make_circle(r: float, n: int | None = None) -> JordanCurve:
    """Origin-centered circle of finite radius r > 0 (recentering is a gauge motion)."""
    if not 0 < r < math.inf:
        raise ValueError(f"radius must be positive and finite, got {r}")
    t = _uniform_params(quadrature_size(n))
    cos, sin = np.cos(t), np.sin(t)
    pts = np.column_stack([r * cos, r * sin])
    der = np.column_stack([-r * sin, r * cos])
    return JordanCurve("circle", t, pts, der, (("r", float(r)),))


def make_ellipse(a: float, b: float, n: int | None = None) -> JordanCurve:
    """Axis-aligned ellipse with finite semi-axes a, b > 0."""
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError(f"semi-axes must be positive and finite, got a={a}, b={b}")
    t = _uniform_params(quadrature_size(n))
    cos, sin = np.cos(t), np.sin(t)
    pts = np.column_stack([a * cos, b * sin])
    der = np.column_stack([-a * sin, b * cos])
    return JordanCurve("ellipse", t, pts, der, (("a", float(a)), ("b", float(b))))


def arclength_rule(curve: JordanCurve) -> tuple[np.ndarray, np.ndarray]:
    """The curve's own nodes and arclength weights ds_j (resample first for another N; at least MIN_NODES)."""
    n = quadrature_size(curve.n_nodes)
    speeds = np.hypot(curve.derivs[:, 0], curve.derivs[:, 1])
    weights = (2.0 * math.pi / n) * speeds
    return curve.points, weights


@dataclass(frozen=True)
class WeightedCurve:
    """Curve and weight source; values (read-only, at curve.params) and sign class derive from the source.

    One sampler reads a constant, a (t, v) table or a callable into a new
    float array, refusing any shape but (n,) and any non-finite value.
    """

    curve: JordanCurve
    source: object  # constant | (t, v) table | callable

    def __post_init__(self):
        self.values.setflags(write=False)  # sampled here, so a bad weight raises where it is attached

    @cached_property
    def values(self) -> np.ndarray:
        return self._sample(self.curve.params)

    @cached_property
    def sign_class(self) -> str:
        """Sign class of the values, with values within _SIGN_ZERO_TOL * max|v| of zero counted as zero."""
        tol = _SIGN_ZERO_TOL * np.max(np.abs(self.values))
        if np.min(self.values) >= -tol:
            return SIGN_NONNEGATIVE
        if np.max(self.values) <= tol:
            return SIGN_NONPOSITIVE
        return SIGN_INDEFINITE

    def _sample(self, params: np.ndarray) -> np.ndarray:
        n = params.size
        if isinstance(self.source, tuple):
            values = self._interp(n)
        elif callable(self.source):
            values = np.array(self.source(params), dtype=float)
        else:
            values = np.full(n, float(self.source))
        if values.shape != (n,):
            raise ValueError(f"weight must give one value per parameter: expected shape ({n},), got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("weight values must be finite")
        return values

    def resample(self, n: int) -> "WeightedCurve":
        return self if n == self.curve.n_nodes else WeightedCurve(self.curve.resample(n), self.source)

    def sample(self, n: int) -> np.ndarray:
        """The weight at the n parameters 2 pi j / n, bytes as resample(n).values, with no curve built."""
        return self.values if n == self.curve.n_nodes else self._sample(_uniform_params(n))

    @cached_property
    def _interp(self) -> _PeriodicInterp:
        return _PeriodicInterp(self.source[1])

    def sample_tails(self) -> dict:
        """The Fourier tail of the sampled curve's points and derivatives and of a weight table, where present.

        Read from the interpolants' coefficients, so no further FFT is taken.
        """
        tails = {}
        if self.curve.kind == "sampled":
            tails["curve_tail"] = self.curve._interp.tail()
        if isinstance(self.source, tuple):
            tails["weight_tail"] = self._interp.tail()
        return tails

    def describe(self) -> str:
        if isinstance(self.source, (int, float)):
            return f"constant({self.source})"
        if callable(self.source):
            return getattr(self.source, "__name__", "callable")
        return "sampled"


def _read_table(path, header: str, columns: int) -> np.ndarray:
    with open(path) as fh:
        if fh.readline().strip() != header:
            raise ValueError(f"{path}: expected header line {header!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty table is reported below
            try:
                table = np.loadtxt(fh, ndmin=2)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
    if not table.size:
        raise ValueError(f"{path}: no data rows")
    if table.shape[1] != columns:
        raise ValueError(f"{path}: expected {columns} columns, got {table.shape[1]}")
    if not np.all(np.isfinite(table)):
        raise ValueError(f"{path}: non-finite values")
    return table


def _write_table(path, header: str, columns) -> None:
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", header=header, comments="")


def load_curve(path) -> JordanCurve:
    """Read a sampled curve file (rows t x y dx dy, at least MIN_NODES = 16 of them)."""
    table = _read_table(path, CURVE_HEADER, 5)
    t = table[:, 0]
    if np.any(np.diff(t) <= 0):
        raise ValueError(f"{path}: parameter column must be strictly increasing")
    if t[0] < 0 or t[-1] >= 2.0 * math.pi + _CLOSURE_TOL:
        raise ValueError(f"{path}: parameters must lie in [0, 2pi)")
    pts = table[:, 1:3].copy()
    der = table[:, 3:5].copy()
    # A duplicated closing row at t = 2pi must match the opening row.
    if abs(t[-1] - 2.0 * math.pi) <= _CLOSURE_TOL:
        gap = np.max(np.abs(pts[-1] - pts[0]))
        if gap > _CLOSURE_TOL * (1.0 + np.max(np.abs(pts))):
            raise ValueError(f"{path}: endpoint rows disagree by {gap:.3e}; curve is not closed")
        t, pts, der = t[:-1], pts[:-1], der[:-1]
    n = t.size
    if n < MIN_NODES:
        raise ValueError(f"{path}: need at least {MIN_NODES} samples, got {n}")
    _require_uniform_grid(path, t)
    return JordanCurve("sampled", _uniform_params(n), pts, der, (("path", str(path)),))


def save_curve(curve: JordanCurve, path) -> None:
    _write_table(path, CURVE_HEADER, (curve.params, curve.points, curve.derivs))


def save_weight(params: np.ndarray, values: np.ndarray, path) -> None:
    _write_table(path, WEIGHT_HEADER, (params, values))


def load_weight(curve: JordanCurve, source) -> WeightedCurve:
    """Attach a weight to a curve.

    source may be a constant, a weight file path (rows t v), a (t, v)
    table, an array of values at the curve nodes, or a callable of the
    parameter.  Files, tables and arrays are copied into (t, v) tables:
    1-D columns of equal length, t strictly increasing on the uniform grid
    2 pi j / M, interpolated by _PeriodicInterp.  A callable must give one
    finite value per parameter, shape (n,), at every node count n.
    """
    name = "weight table"
    if isinstance(source, (str, Path)):
        table = _read_table(source, WEIGHT_HEADER, 2)
        name, source = source, (table[:, 0], table[:, 1])
    if isinstance(source, tuple) and len(source) == 2 and not np.isscalar(source[0]):
        t, v = (np.array(a, dtype=float) for a in source)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValueError(f"{name}: t and v must be 1-D of equal length, got {t.shape} and {v.shape}")
        if not np.all(np.diff(t) > 0):
            raise ValueError(f"{name}: parameter column must be strictly increasing")
        _require_uniform_grid(name, t)
        source = (t, v)
    elif not (isinstance(source, (int, float)) or callable(source)):
        v = np.array(source, dtype=float)
        if v.shape != (curve.n_nodes,):
            raise ValueError(f"weight array must have one value per curve node ({curve.n_nodes}), got {v.shape}")
        source = (curve.params.copy(), v)
    return WeightedCurve(curve, source)
