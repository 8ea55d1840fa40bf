"""Jordan curves, arclength quadrature, and interaction weights.

Curves are stored as parametrization samples gamma(t_j) with derivatives
at N uniform parameters t_j = 2 pi j / N, N = DEFAULT_NODES unless given.
Every sample table (a curve file or sampled curve; a weight file, (t, v)
table or array) meets one rule, checked by _periodic_rows with a refusal
naming its source: one row of finite values per parameter, t strictly
increasing within [0, 2pi), a last row at t = 2pi that repeats the first
within 1e-9 dropped, and the other M rows on the grid t = 2 pi j / M.
Circles and ellipses resample exactly; sampled curves and weight tables
share one trigonometric interpolant of their native samples, evaluated
exactly at any node count, so the even nodes of 2N values are the N values.
A weight is its source (a constant, a table or a callable), read at any
node count by one sampler into one finite value per parameter.  Each
sampled input reports the Fourier tail of its samples (sample_tails): a
slow tail (a kink, a jump) is the interpolation error no node count
removes.  Line integrals use the periodic trapezoid rule, ds_j = (2pi/N)
|gamma'(t_j)|: spectral on smooth closed curves, exact on circle harmonics.
Simplicity (no self-intersection) and C^{1,1} regularity of sampled data are assumed, not verified.

File formats (whitespace separated, %.17g, radians; '#' starts a comment):

    curve:   header "# jordan-curve v1", rows "t x y dx dy", at least 16 besides a closing row
    weight:  header "# weight v1",       rows "t v"
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
import numpy as np

from .laguerre import _index, finite_real

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
_CLOSURE_TOL = 1e-9  # a sample table's closing-row gap (relative) and distance from the grid

CURVE_HEADER = "# jordan-curve v1"
WEIGHT_HEADER = "# weight v1"


def quadrature_size(n: int | None = None, name: str = "node count n") -> int:
    """n as an int, or DEFAULT_NODES for None; a non-integer (laguerre._index) or fewer than MIN_NODES nodes are refused."""
    n = DEFAULT_NODES if n is None else _index(name, n)
    if n < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} nodes, got {n}")
    return n


def _uniform_params(n: int) -> np.ndarray:
    return np.arange(n) * (2.0 * math.pi / n)  # np.linspace(0, 2 pi, n, endpoint=False) bit for bit, in a third of its time


def _periodic_rows(name, t: np.ndarray, *columns: np.ndarray) -> int:
    """Check t and its value columns as one sample table (the module's rule); return M, its rows but a closing row.

    Each refusal reads "<name>: ...".  Columns are read in place: a curve passes views, nothing is stacked.
    """
    if t.ndim != 1 or any(c.shape != t.shape for c in columns):
        bad = next((c for c in columns if c.shape != t.shape), columns[0])
        raise ValueError(f"{name}: t and v must be 1-D of equal length, got {t.shape} and {bad.shape}")
    if not t.size:
        raise ValueError(f"{name}: no data rows")
    if not all(np.isfinite(a).all() for a in (t, *columns)):
        raise ValueError(f"{name}: non-finite values")
    if (t[1:] <= t[:-1]).any():
        raise ValueError(f"{name}: parameter column must be strictly increasing")
    if t[0] < 0 or t[-1] >= 2.0 * math.pi + _CLOSURE_TOL:
        raise ValueError(f"{name}: parameters must lie in [0, 2pi)")
    m = t.size
    if m > 1 and abs(t[-1] - 2.0 * math.pi) <= _CLOSURE_TOL:
        gap = max(abs(c[-1] - c[0]) for c in columns)
        if gap > _CLOSURE_TOL * (1.0 + max(np.max(np.abs(c)) for c in columns)):
            raise ValueError(f"{name}: closing row at t = 2pi differs from the first row by {gap:.3e}")
        m -= 1
    if np.max(np.abs(t[:m] - _uniform_params(m))) > _CLOSURE_TOL:
        raise ValueError(f"{name}: samples must sit on the uniform grid 2*pi*j/N")
    return m


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
        if not np.logical_or(self.derivs[:, 0], self.derivs[:, 1]).all():  # |gamma'| vanishes where both components do
            raise ValueError("curve is not regular: |gamma'| vanishes at a node")
        m = _periodic_rows("curve", self.params, *self.points.T, *self.derivs.T)
        for field in ("params", "points", "derivs"):  # frozen, and rows [:m]: a closing row is dropped
            getattr(self, field).setflags(write=False)
            object.__setattr__(self, field, getattr(self, field)[:m])

    @property
    def n_nodes(self) -> int:
        return self.params.size

    def resample(self, n: int) -> "JordanCurve":
        """Same curve on n uniform nodes; every kind refuses a non-integer n or fewer than MIN_NODES (quadrature_size)."""
        n = quadrature_size(n)
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


def _axis_aligned(kind: str, a: float, b: float, n: int | None, meta: tuple) -> JordanCurve:
    t = _uniform_params(quadrature_size(n))
    cos, sin = np.cos(t), np.sin(t)
    return JordanCurve(kind, t, np.column_stack([a * cos, b * sin]), np.column_stack([-a * sin, b * cos]), meta)


def make_circle(r: float, n: int | None = None) -> JordanCurve:
    """Origin-centered circle of finite radius r > 0 (recentering is a gauge motion)."""
    r = finite_real("radius", r, 0.0, math.inf, "radius must be positive and finite")
    return _axis_aligned("circle", r, r, n, (("r", r),))


def make_ellipse(a: float, b: float, n: int | None = None) -> JordanCurve:
    """Axis-aligned ellipse with finite semi-axes a, b > 0; a refusal of either names both."""
    words, got = "semi-axes must be positive and finite", f"a={a}, b={b}"
    a = finite_real("semi-axis a", a, 0.0, math.inf, words, got)
    b = finite_real("semi-axis b", b, 0.0, math.inf, words, got)
    return _axis_aligned("ellipse", a, b, n, (("a", a), ("b", b)))


def arclength_rule(curve: JordanCurve) -> tuple[np.ndarray, np.ndarray]:
    """The curve's own nodes and arclength weights ds_j (resample first for another N; at least MIN_NODES)."""
    n = quadrature_size(curve.n_nodes)
    return curve.points, (2.0 * math.pi / n) * np.hypot(curve.derivs[:, 0], curve.derivs[:, 1])


class _Table(tuple):
    """A (t, v) weight table checked by the module's rule as name, closing row dropped; resamples share it and its interpolant."""

    def __new__(cls, table, name: str = "weight table"):  # a pickle or copy calls _Table(tuple(self)), checked again
        t, v = table
        m = _periodic_rows(name, t, v)
        self = super().__new__(cls, (t[:m], v[:m]))
        self.interp = _PeriodicInterp(v[:m])  # its FFT is taken on first use, once
        return self


@dataclass(frozen=True)
class WeightedCurve:
    """Curve and weight source; values (read-only, at curve.params) and sign class derive from the source.

    One sampler reads a constant, a (t, v) table or a callable into a new
    float array, refusing any shape but (n,) and any non-finite value.
    """

    curve: JordanCurve
    source: object  # constant | (t, v) table | callable

    def __post_init__(self):
        if isinstance(self.source, tuple) and not isinstance(self.source, _Table):  # a table built in code, as load_weight's
            object.__setattr__(self, "source", _Table(np.asarray(a, dtype=float) for a in self.source))
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
            values = self.source.interp(n)
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

    def sample_tails(self) -> dict:
        """The Fourier tail of the sampled curve's columns and of a weight table, where present, from the interpolants' coefficients."""
        tails = {}
        if self.curve.kind == "sampled":
            tails["curve_tail"] = self.curve._interp.tail()
        if isinstance(self.source, tuple):
            tails["weight_tail"] = self.source.interp.tail()
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
    return table


def _write_table(path, header: str, columns) -> None:
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", header=header, comments="")


def load_curve(path) -> JordanCurve:
    """Read a sampled curve file (rows t x y dx dy, at least MIN_NODES = 16 of them besides a closing row)."""
    table = _read_table(path, CURVE_HEADER, 5)
    n = _periodic_rows(path, *table.T)
    if n < MIN_NODES:
        raise ValueError(f"{path}: need at least {MIN_NODES} samples, got {n}")
    return JordanCurve("sampled", _uniform_params(n), table[:n, 1:3].copy(), table[:n, 3:5].copy(), (("path", str(path)),))


def save_curve(curve: JordanCurve, path) -> None:
    _write_table(path, CURVE_HEADER, (curve.params, curve.points, curve.derivs))


def save_weight(params: np.ndarray, values: np.ndarray, path) -> None:
    _write_table(path, WEIGHT_HEADER, (params, values))


def load_weight(curve: JordanCurve, source) -> WeightedCurve:
    """Attach a weight to a curve.

    source may be a constant (a Python or numpy integer or real, kept as
    a Python int or float; laguerre.finite_real refuses a bool, complex,
    None or non-finite one by name), a weight file path (rows t v), a (t, v)
    table, an array of values at the curve nodes, or a callable of the
    parameter.  Files, tables and arrays are copied into (t, v) tables, an
    array at the curve's parameters, that meet the module's one rule (a
    refusal names "weight array", "weight table" or the file's path).  A
    callable must give one finite value per parameter, shape (n,), at every
    node count n.
    """
    name = "weight table"
    if isinstance(source, numbers.Number) or source is None:  # a constant: an integer stays an int, as describe() prints it
        value = finite_real("weight", source)
        source = int(source) if isinstance(source, numbers.Integral) else value
    if isinstance(source, (str, Path)):
        table = _read_table(source, WEIGHT_HEADER, 2)
        name, source = source, (table[:, 0], table[:, 1])
    if isinstance(source, tuple) and len(source) == 2 and not np.isscalar(source[0]):
        t, v = (np.array(a, dtype=float) for a in source)
    elif isinstance(source, (int, float)) or callable(source):
        return WeightedCurve(curve, source)
    else:
        v = np.array(source, dtype=float)
        if v.shape != (curve.n_nodes,):
            raise ValueError(f"weight array must have one value per curve node ({curve.n_nodes}), got {v.shape}")
        name, t = "weight array", curve.params.copy()
    return WeightedCurve(curve, _Table((t, v), name))
