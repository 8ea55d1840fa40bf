"""Jordan curves, arclength quadrature, and interaction weights.

Curves are stored as parametrization samples gamma(t_j) with derivatives
at N uniform parameters t_j in [0, 2pi), N = DEFAULT_NODES unless given.
Circles and ellipses resample exactly; sampled curves and weight tables
share one periodic linear interpolant.  Line integrals use the periodic
trapezoid rule, ds_j = (2pi/N) |gamma'(t_j)|: spectral on smooth closed
curves, exact on circle harmonics.  Simplicity (no self-intersection) and
C^{1,1} regularity of sampled data are assumed, not verified.

File formats (whitespace separated, %.17g, radians; '#' starts a comment):

    curve:   header "# jordan-curve v1", rows "t x y dx dy"
    weight:  header "# weight v1",       rows "t v"
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
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


def _periodic_interp(x: np.ndarray, t: np.ndarray, columns) -> np.ndarray:
    """Periodic (2pi) linear interpolation at x of each column sampled at t, stacked as columns."""
    return np.column_stack([np.interp(x, t, col, period=2.0 * math.pi) for col in columns])


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
        t = _uniform_params(n)
        pts = _periodic_interp(t, self.params, self.points.T)
        der = _periodic_interp(t, self.params, self.derivs.T)
        return JordanCurve("sampled", t, pts, der, self.meta)

    def describe(self) -> str:
        items = ", ".join(f"{k}={v}" for k, v in self.meta)
        return f"{self.kind}({items})" if items else self.kind


def make_circle(r: float, n: int | None = None) -> JordanCurve:
    """Origin-centered circle of radius r (recentering is a gauge motion)."""
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    t = _uniform_params(quadrature_size(n))
    pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    der = np.column_stack([-r * np.sin(t), r * np.cos(t)])
    return JordanCurve("circle", t, pts, der, (("r", float(r)),))


def make_ellipse(a: float, b: float, n: int | None = None) -> JordanCurve:
    """Axis-aligned ellipse with semi-axes a, b."""
    if not (a > 0 and b > 0):
        raise ValueError(f"semi-axes must be positive, got a={a}, b={b}")
    t = _uniform_params(quadrature_size(n))
    pts = np.column_stack([a * np.cos(t), b * np.sin(t)])
    der = np.column_stack([-a * np.sin(t), b * np.cos(t)])
    return JordanCurve("ellipse", t, pts, der, (("a", float(a)), ("b", float(b))))


def arclength_rule(curve: JordanCurve, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes on the curve and arclength weights ds_j."""
    n = quadrature_size(n)
    c = curve.resample(n)
    speeds = np.hypot(c.derivs[:, 0], c.derivs[:, 1])
    weights = (2.0 * math.pi / n) * speeds
    return c.points, weights


@dataclass(frozen=True)
class WeightedCurve:
    """Curve together with interaction weight samples and their sign class."""

    curve: JordanCurve
    values: np.ndarray  # weight at curve.params
    sign_class: str
    source: object  # constant | (t, v) table | callable, kept for resampling

    def __post_init__(self):
        self.values.setflags(write=False)

    def resample(self, n: int) -> "WeightedCurve":
        if n == self.curve.n_nodes:
            return self
        return load_weight(self.curve.resample(n), self.source)

    def describe(self) -> str:
        if isinstance(self.source, (int, float)):
            return f"constant({self.source})"
        if callable(self.source):
            return getattr(self.source, "__name__", "callable")
        return "sampled"


def classify_sign(values: np.ndarray) -> str:
    if np.min(values) >= -_SIGN_ZERO_TOL:
        return SIGN_NONNEGATIVE
    if np.max(values) <= _SIGN_ZERO_TOL:
        return SIGN_NONPOSITIVE
    return SIGN_INDEFINITE


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
    if np.max(np.abs(t - _uniform_params(n))) > 1e-9:
        raise ValueError(f"{path}: samples must sit on the uniform grid 2*pi*j/N")
    return JordanCurve("sampled", _uniform_params(n), pts, der, (("path", str(path)),))


def save_curve(curve: JordanCurve, path) -> None:
    _write_table(path, CURVE_HEADER, (curve.params, curve.points, curve.derivs))


def save_weight(params: np.ndarray, values: np.ndarray, path) -> None:
    _write_table(path, WEIGHT_HEADER, (params, values))


def load_weight(curve: JordanCurve, source) -> WeightedCurve:
    """Attach a weight to a curve.

    source may be a constant, a weight file path (rows t v), a (t, v)
    table, an array of values at the curve nodes, or a callable of the
    parameter.  Files and arrays are kept as (t, v) tables: 1-D columns of
    equal length, t strictly increasing, interpolated by _periodic_interp.
    """
    name = "weight table"
    if isinstance(source, (str, Path)):
        table = _read_table(source, WEIGHT_HEADER, 2)
        name, source = source, (table[:, 0], table[:, 1])
    if isinstance(source, (int, float)):
        values = np.full(curve.n_nodes, float(source))
    elif isinstance(source, tuple) and len(source) == 2 and not np.isscalar(source[0]):
        t, v = (np.asarray(a, dtype=float) for a in source)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValueError(f"{name}: t and v must be 1-D of equal length, got {t.shape} and {v.shape}")
        if not np.all(np.diff(t) > 0):
            raise ValueError(f"{name}: parameter column must be strictly increasing")
        values = _periodic_interp(curve.params, t, (v,))[:, 0]
        source = (t, v)
    elif callable(source):
        values = np.asarray(source(curve.params), dtype=float)
    else:
        values = np.asarray(source, dtype=float)
        if values.shape != (curve.n_nodes,):
            raise ValueError(
                f"weight array must have one value per curve node ({curve.n_nodes}), got {values.shape}"
            )
        source = (curve.params.copy(), values.copy())
    if not np.all(np.isfinite(values)):
        raise ValueError("weight values must be finite")
    return WeightedCurve(curve, values, classify_sign(values), source)
