"""Angular-momentum eigenbasis of the Landau Hamiltonian.

This module is the one home of the basis convention (normalisation,
reflection for k < q, phase i^{-q}); every other module reads phi_{k,q}
from here.  For field strength b > 0 the level Lambda_q = b(2q+1)
eigenspace has the orthonormal basis

    phi_{k,q}(x) = i^{-q} sqrt(b/2pi) sqrt(q!/k!) (sqrt(b/2) z)^{k-q}
                   L_q^(k-q)(b|x|^2/2) exp(-b|x|^2/4),    z = x1 + i x2.

For k < q the apparent z^{k-q} singularity is removed with the reflection
identity, which turns the prefactor into a finite conjugate-power form

    i^{-q} sqrt(b/2pi) sqrt(k!/q!) (-1)^{q-k} (sqrt(b/2) zbar)^{q-k}
    L_k^(q-k)(b|x|^2/2) exp(-b|x|^2/4).

As phi_{k,q}(r e^{i theta}) = phi_{k,q}(r, 0) e^{i(k-q) theta}, the circle
diagonal of toeplitz is lambda_{k,q}(r) = 2 pi r |phi_{k,q}(r, 0)|^2.
Magnitudes depend on x only through t = b|x|^2/2.  They are computed in
log space by _log_abs, the one home of the log|phi| formula, so that k!
never overflows and far-field evaluation degrades gracefully to zero;
the toeplitz truncation sweep reads them alone, without phases.  k and q
broadcast against the points, so a matrix of rows takes one Laguerre recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .laguerre import MAX_RULE_NODES, _each, _index, finite_real, gauss_laguerre_log_rule, laguerre_eval_batch

__all__ = [
    "MagneticField",
    "BasisIndex",
    "magnetic_phase",
    "basis_eval",
    "basis_eval_parts",
    "basis_matrix",
    "basis_inner_product",
    "plane_inner_product",
    "plane_gram",
    "gram_rule",
    "annihilation_residual",
    "magnetic_translate",
    "stacked_parts",
    "translated_parts",
]

FD_STEP = 1e-4
# log k! table size; larger k (past twice the largest truncation) build one
# power-of-two table per size class.
LOG_FACTORIAL_TABLE = 1024


@dataclass(frozen=True)
class MagneticField:
    """Constant magnetic field of finite strength b > 0."""

    b: float

    def __post_init__(self):
        object.__setattr__(self, "b", finite_real("field strength", self.b, 0.0, math.inf, "field strength must be positive and finite"))

    def modulus(self, r):
        """t = b r^2 / 2 at radius r (scalar or array), rounded as (b / 2)(r r): the one spelling of a circle's t."""
        return 0.5 * self.b * (r * r)

    def landau_level(self, q: int) -> float:
        """Lambda_q = b(2q+1)."""
        return self.b * (2 * _index("level q", q) + 1)


@dataclass(frozen=True)
class BasisIndex:
    """Angular index k and level index q of a basis function."""

    k: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "k", _index("angular index k", self.k))
        object.__setattr__(self, "q", _index("level q", self.q))


def _as_points(x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.shape[-1] != 2:
        raise ValueError(f"points must have a trailing axis of size 2, got shape {pts.shape}")
    return pts


def magnetic_phase(field: MagneticField, x):
    """Gauge phase b|x|^2/4."""
    pts = _as_points(x)
    out = field.b * np.sum(pts * pts, axis=-1) / 4.0
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=None)
def _log_factorials(size: int) -> np.ndarray:
    """log k! for k < size."""
    return np.array([math.lgamma(k + 1) for k in range(size)])


def _log_factorial(n):
    """log n! for an integer or an integer array."""
    try:
        return _log_factorials(LOG_FACTORIAL_TABLE)[n]
    except IndexError:
        return _log_factorials(1 << int(np.max(n)).bit_length())[n]


def _log_abs(field: MagneticField, k, q, t):
    """log|phi_{k,q}| at moduli t = b|x|^2/2, and the Laguerre factor whose sign the phase reads.

    k and q broadcast against t: a column of angular indices against N
    moduli gives one row per index, all from one recurrence.  A Laguerre
    factor that is not finite (past the double range at a high q and large
    t) raises ValueError naming the largest such q and t, without a numpy warning.
    """
    lo, hi = np.minimum(k, q), np.maximum(k, q)
    n = hi - lo
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        poly = laguerre_eval_batch(lo, n, t)
        if not np.isfinite(poly).all():
            q_bad, t_bad = (np.broadcast_to(x, poly.shape)[~np.isfinite(poly)].max() for x in (q, t))
            raise ValueError(f"Laguerre factor of phi_(k,q) is not finite at q = {q_bad}, t = {t_bad:.6g}: past the double range")
        log_norm = 0.5 * (math.log(field.b / (2.0 * math.pi)) + _log_factorial(lo) - _log_factorial(hi))
        logabs = log_norm - 0.5 * t + np.log(np.abs(poly))
        if n.any():  # times t^{n/2}
            power = 0.5 * n * np.log(t)
            if not t.all():  # 0 log 0 = 0: phi(0) is nonzero for n = 0
                power = np.where(n > 0, power, 0.0)
            logabs = logabs + power
    return logabs, poly


def _parts_arrays(field: MagneticField, k, q, pts: np.ndarray):
    """log|phi_{k,q}| and arg phi_{k,q} at an array of points; k and q broadcast against pts.shape[:-1]."""
    x, y = pts[..., 0], pts[..., 1]
    logabs, poly = _log_abs(field, k, q, 0.5 * field.b * (x * x + y * y))
    # arg = (k - q) theta - pi q / 2, plus pi for odd reflected powers and negative L.
    reflected = (k < q) & ((q - k) % 2 == 1)
    phase = (k - q) * np.arctan2(y, x) + math.pi * (reflected - 0.5 * q) + math.pi * (poly < 0.0)
    return logabs, phase


def _from_parts(logabs, phase, out=None) -> np.ndarray:
    """exp(logabs + i phase), as exp(logabs) cos(phase) + i exp(logabs) sin(phase).

    Equal to np.exp(logabs) * np.exp(1j * phase) in every value (only the
    sign of a zero may differ), without the complex temporaries.  Written
    into out, a complex array of the broadcast shape, if given.
    """
    mag = np.exp(logabs)
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(mag), np.shape(phase)), dtype=complex)
    np.multiply(mag, np.cos(phase), out=out.real)
    np.multiply(mag, np.sin(phase), out=out.imag)
    return out


def basis_eval_parts(field: MagneticField, idx: BasisIndex, x):
    """Return (log|phi|, arg phi); log is -inf exactly on the nodal set."""
    pts = _as_points(x)
    logabs, phase = _parts_arrays(field, idx.k, idx.q, pts)
    if pts.ndim == 1:
        return float(logabs), float(phase)
    return logabs, phase


def basis_eval(field: MagneticField, idx: BasisIndex, x):
    """Evaluate phi_{k,q} at one point or an array of points."""
    val = _from_parts(*basis_eval_parts(field, idx, x))
    return complex(val) if val.ndim == 0 else val


def basis_matrix(field: MagneticField, q: int, ks, points) -> np.ndarray:
    """Matrix phi_{k,q}(x_j) with one row per angular index k."""
    pts = _as_points(points)
    if pts.ndim != 2:
        raise ValueError("basis_matrix expects an (N, 2) array of points")
    ks = np.array([_index("angular index k", k) for k in ks], dtype=int)
    return _from_parts(*_parts_arrays(field, ks[:, None], _index("level q", q), pts))


def stacked_parts(field: MagneticField, q: int, ks, y=None) -> Callable:
    """Log-magnitude/phase of phi_{k,q} for the angular indices ks, or of their magnetic translates T_y.

    The returned callable maps points of shape (..., 2) to (log|f|, arg f)
    with one leading row per index in ks, all rows from one broadcast
    evaluation (one t, log t and arctan2 for every row); a scalar ks gives
    no leading row.  (T_y f)(x) = exp(-i(b/2) x^y) f(x - y) with
    x^y = x1 y2 - x2 y1, so the magnitude is carried over from x - y and
    only the phase is twisted; y = None is the untranslated basis, with no
    twist applied.  q and each index follow the package's one integer rule
    (laguerre._index): a float, bool, str or None, or a value below 0, is
    refused by name, never truncated.
    """
    q, ks = _index("level q", q), _each(_index, int, "angular index k", ks)
    y = None if y is None else np.asarray(y, dtype=float)

    def parts(pts: np.ndarray):
        k = ks.reshape(ks.shape + (1,) * (pts.ndim - 1))
        if y is None:
            return _parts_arrays(field, k, q, pts)
        logabs, phase = _parts_arrays(field, k, q, pts - y)
        wedge = pts[..., 0] * y[1] - pts[..., 1] * y[0]
        return logabs, phase - 0.5 * field.b * wedge

    return parts


def translated_parts(field: MagneticField, idx: BasisIndex, y) -> Callable:
    """Log-magnitude/phase of the magnetic translate T_y phi_{k,q}: the one-row stacked_parts."""
    return stacked_parts(field, idx.q, idx.k, y)


def gram_rule(kq_max: int, dk_max: int) -> tuple[int, int]:
    """(radial n, angular A) of the plane_gram rule exact for phi_{k,q} up to k + q = kq_max, |k - k'| <= dk_max.

    After the angular sum, the integrand of <phi_{k,q}, phi_{k,q}> is a
    polynomial of degree k + q in t times e^{-t}, which n = ceil((kq_max + 1)/2)
    Gauss-Laguerre nodes integrate exactly (2n - 1 >= k + q); A, the least
    power of two > dk_max, sums every e^{i(k - k') theta} with 0 < |k - k'| <= dk_max
    to zero.  A kq_max past 2 MAX_RULE_NODES - 1 = 723 raises ValueError naming
    it: its rule leaves the double range.
    """
    n = _index("kq_max", kq_max) // 2 + 1
    if n > MAX_RULE_NODES:
        raise ValueError(f"k + q = {kq_max} needs a {n}-node Gauss-Laguerre rule, past the MAX_RULE_NODES = "
                         f"{MAX_RULE_NODES} that stay in the double range (k + q <= {2 * MAX_RULE_NODES - 1})")
    return n, 1 << _index("dk_max", dk_max).bit_length()


def plane_gram(field: MagneticField, parts: Callable, rule: tuple[int, int]) -> np.ndarray:
    """L^2(R^2) Gram matrix G_ij = <f_i, f_j> of the functions whose stacked parts one callable gives.

    parts maps points of shape (n, A, 2) to (log|f|, arg f) of shape
    (m, n, A), one leading row per function, as stacked_parts does, and is
    called once.  Polar quadrature on rule = (n, A): n Gauss nodes in
    t = b r^2 / 2 against the weight e^{-t} (the Gaussian decay of the
    integrands pays for the e^{+t} compensation, half of it taken into
    each factor in log space), A uniform nodes in the angle.
    - Basis functions: gram_rule sizes the rule from k and q, and the
      quadrature is then exact up to rounding.
    - Magnetic translates are not band-limited, so no degree sizes them;
      size the rule by measurement (verify uses 32 x 64 at b = 2, where
      doubling both sizes moves no entry by more than 1e-13).
    - n is at most MAX_RULE_NODES = 362 (k + q <= 723).
    - Memory: the one evaluation holds m n A complex samples (16 bytes
      each) and peaks at four times that with its float temporaries
      (tracemalloc), 64 m n A bytes: 13 functions on 9 x 16 nodes take
      0.11 MB, and 2 functions at k + q = 723 and |k - k'| = 723
      (362 x 1024 nodes) take 47 MB.
    """
    radial, angular = rule
    t, logw = gauss_laguerre_log_rule(radial, 0.0)
    half_logw = 0.5 * (logw + t)
    r = np.sqrt(2.0 * t / field.b)
    theta = np.linspace(0.0, 2.0 * math.pi, angular, endpoint=False)
    pts = np.empty((radial, angular, 2))
    pts[..., 0] = r[:, None] * np.cos(theta)[None, :]
    pts[..., 1] = r[:, None] * np.sin(theta)[None, :]
    la, ph = parts(pts)
    phi = _from_parts(la + half_logw[:, None], ph).reshape(len(la), -1)
    return (phi @ phi.conj().T) * (2.0 * math.pi / angular) / field.b


def plane_inner_product(field: MagneticField, parts1: Callable, parts2: Callable, rule: tuple[int, int]) -> complex:
    """L^2(R^2) inner product of two functions given by one-row parts callables, on the caller's rule.

    See plane_gram for the rule: gram_rule's exactness bound for basis
    functions, a measured size for translates, n <= MAX_RULE_NODES and the
    memory budget.
    """

    def both(pts: np.ndarray):
        (la1, ph1), (la2, ph2) = parts1(pts), parts2(pts)
        return np.stack([la1, la2]), np.stack([ph1, ph2])

    return complex(plane_gram(field, both, rule)[0, 1])


def basis_inner_product(field: MagneticField, idx1: BasisIndex, idx2: BasisIndex) -> complex:
    """<phi_{k1,q}, phi_{k2,q}> by polar quadrature; requires equal q.

    The rule is gram_rule(max(k1, k2) + q, |k1 - k2|), exact up to rounding:
    at b = 2, norms come out 1 within 1.1e-13 at (k, q) = (200, 60),
    (200, 120) and (250, 200), within 5e-12 up to k + q = 723 (the rule's
    own weights sum to 1 within 2e-11 there), and a larger k + q raises
    ValueError naming it.  Memory as in plane_gram, for 2 functions.
    """
    if idx1.q != idx2.q:
        raise ValueError(
            f"cross-level inner products are exact by construction; got q={idx1.q} and q={idx2.q}"
        )
    q, k1, k2 = idx1.q, idx1.k, idx2.k
    rule = gram_rule(max(k1, k2) + q, abs(k1 - k2))
    return complex(plane_gram(field, stacked_parts(field, q, [k1, k2]), rule)[0, 1])


def annihilation_residual(field: MagneticField, idx: BasisIndex, x) -> float:
    """|a phi_{k,0}(x)| with the annihilation operator applied by central differences.

    a = Pi_1(A) + i Pi_2(A) acts as a u = -i du/dx1 + du/dx2 - i(b/2) z u.
    Lowest-level basis functions lie in ker(a), so the residual is pure
    discretization error, O(h^2) + roundoff, at step h = FD_STEP.  The
    point and its four stencil neighbours x +- h e1, x +- h e2 are
    evaluated in one basis_eval call.
    """
    if idx.q != 0:
        raise ValueError("annihilation residual is defined for lowest-level indices (q = 0)")
    pt = _as_points(x)
    if pt.ndim != 1:
        raise ValueError("annihilation_residual expects a single point")
    h = FD_STEP
    stencil = pt + np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    u, u1p, u1m, u2p, u2m = basis_eval(field, idx, stencil)
    du1 = (u1p - u1m) / (2 * h)
    du2 = (u2p - u2m) / (2 * h)
    z = pt[0] + 1j * pt[1]
    return abs(-1j * du1 + du2 - 0.5j * field.b * z * u)


def magnetic_translate(field: MagneticField, y, f: Callable, x):
    """(T_y f)(x) = exp(-i(b/2)(x1 y2 - x2 y1)) f(x - y)."""
    y = np.asarray(y, dtype=float)
    pts = _as_points(x)
    wedge = pts[..., 0] * y[1] - pts[..., 1] * y[0]
    return np.exp(-0.5j * field.b * wedge) * f(pts - y)
