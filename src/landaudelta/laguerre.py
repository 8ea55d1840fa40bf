"""Generalized Laguerre polynomials.

Evaluation by the three-term recurrence in the degree, zeros as the
eigenvalues of the Jacobi matrix of the Laguerre weight (Golub & Welsch,
Math. Comp. 23, 1969) with one Newton polish step, many parameters in
one stacked eigvalsh call, multiplicity-aware zeros at negative integer
parameters through the reflection identity

    L_q^(k-q)(t) = (k!/q!) (-t)^(q-k) L_k^(q-k)(t),   0 <= k < q,

Gauss quadrature for the weight e^{-t} t^alpha, and the orthogonality
defect against the closed-form normalization Gamma(alpha+1) C(q+alpha, q).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "LaguerreSpec",
    "finite_real",
    "laguerre_eval",
    "laguerre_eval_batch",
    "laguerre_derivative",
    "laguerre_zeros",
    "positive_zeros",
    "nodal_zeros",
    "gauss_laguerre_rule",
    "gauss_laguerre_log_rule",
    "orthogonality_defect",
]

_INT_TOL = 1e-12
# Largest Gauss rule built: at alpha = 0, (n + 1) L_{n+1}(t_i) overflows at the
# largest node from n = 363 on (measured, numpy 2.4); a larger alpha fails
# earlier (from n = 356 at alpha = 50) and is refused by its non-finite weights.
MAX_RULE_NODES = 362


def _index(name: str, x, low: int = 0) -> int:
    """x as an int: the one integer-argument rule of the package (levels, cuts, degrees, counts).

    An int or a numpy integer is accepted; a bool, float, str, None or
    anything else is refused with "<name> must be an integer, got <x!r>",
    and an x below low with "<name> must be >= <low>, got <x>".
    """
    if type(x) is not int:  # an int skips the ABC check, which costs about 1 us
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {x!r}")
        x = int(x)
    if x < low:
        raise ValueError(f"{name} must be >= {low}, got {x}")
    return x


def finite_real(name: str, x, low: float = -math.inf, high: float | None = None, words: str | None = None, got=None) -> float:
    """x as a finite Python float: the one real-argument rule of the package (field strengths, radii, parameters, cutoffs).

    An int, a float or a numpy real is read as a float (a float32 widens
    exactly); anything else, a bool, str, None or complex among them, is
    refused with "<name> must be a real number, got <x!r>".  An x not above
    low or, with high given, not below high (nan included) is refused with
    "<words>, got <got or x>"; a +inf left over with "<name> must be
    finite, got inf", the default words.  Public so the CLI checks its options with it.
    """
    if type(x) is not float:  # a float skips the ABC check, which costs about 0.15 us
        if not isinstance(x, float) and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
            raise ValueError(f"{name} must be a real number, got {x!r}")
        x = float(x)
    if not low < x or (high is not None and not x < high):
        raise ValueError(f"{words or name + ' must be finite'}, got {x if got is None else got}")
    if high is None and x == math.inf:
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def _each(door, dtype, name: str, x, *bounds) -> np.ndarray:
    """x, a scalar or an array-like of any shape, as a dtype array of door(name, entry, *bounds): the array form of _index and finite_real.

    An ndarray that casts to dtype safely, bool apart, is checked by its smallest and largest entries (a nan is both);
    anything else entry by entry as the objects it holds, so the first bool or str is named: numpy would read [0, True] as numbers.
    """
    if isinstance(x, np.ndarray) and x.dtype.kind != "b" and np.can_cast(x.dtype, dtype):
        for extreme in (x.min(), x.max()) if x.size else ():
            door(name, extreme, *bounds)
        return x.astype(dtype, copy=False)
    items = np.asarray(x, dtype=object)
    return np.array([door(name, item, *bounds) for item in items.ravel().tolist()], dtype=dtype).reshape(items.shape)


@dataclass(frozen=True)
class LaguerreSpec:
    """Degree q and parameter alpha of a generalized Laguerre polynomial."""

    degree: int
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "degree", _index("degree", self.degree))
        object.__setattr__(self, "alpha", finite_real("alpha", self.alpha))


def laguerre_eval(spec: LaguerreSpec, t):
    """Evaluate L_q^(alpha)(t) for scalar or array t.

    Uses the degree recurrence
        (n+1) L_{n+1} = (2n+1+alpha-t) L_n - (n+alpha) L_{n-1},
    valid for every real alpha and t.
    """
    out = laguerre_eval_batch(spec.degree, spec.alpha, np.asarray(t, dtype=float))
    return out if isinstance(t, np.ndarray) else float(out)


def laguerre_eval_batch(degrees, alphas, t) -> np.ndarray:
    """Evaluate L_n^(alpha)(t) with degrees, parameters and t broadcast together.

    One broadcast run of the degree recurrence; each entry is taken once
    its own degree is reached, so it equals its own scalar run bit for bit.
    A scalar degree runs the plain recurrence, without masks, and a scalar
    parameter stays a Python float.
    """
    deg = np.asarray(degrees)
    a = float(alphas) if np.ndim(alphas) == 0 else np.asarray(alphas, dtype=float)
    taken = set(deg.ravel().tolist())
    top = max(taken, default=0)
    if top == 0:
        return np.ones(np.broadcast(deg, a, t).shape)
    out = np.ones(np.broadcast(deg, a, t).shape) if deg.ndim else None
    prev, cur = 1.0, 1.0 + a - t
    for n in range(1, top):
        if n in taken:
            np.copyto(out, cur, where=deg == n)
        # ((2n+1+a-t) L_n - (n+a) L_{n-1}) / (n+1), in place: the same roundings.
        nxt = (2 * n + 1 + a) - t
        nxt *= cur
        prev *= n + a
        nxt -= prev
        nxt /= n + 1.0
        prev, cur = cur, nxt
    if out is None:
        return np.asarray(cur)
    np.copyto(out, cur, where=deg == top)
    return out


def magnitude_envelope(spec: LaguerreSpec, t):
    """Accumulated-magnitude envelope of the evaluation recurrence.

    Bounds every intermediate of laguerre_eval, so eps * envelope bounds
    the achievable absolute accuracy; identities between polynomial
    values can only be asserted relative to this scale near zeros.
    """
    q, a = spec.degree, spec.alpha
    t_arr = np.abs(np.asarray(t, dtype=float))
    env_prev = np.ones_like(t_arr)
    if q == 0:
        return env_prev if isinstance(t, np.ndarray) else float(env_prev)
    env = 1.0 + abs(a) + t_arr
    for n in range(1, q):
        env_prev, env = env, ((abs(2 * n + 1 + a) + t_arr) * env + abs(n + a) * env_prev) / (n + 1)
    return env if isinstance(t, np.ndarray) else float(env)


def laguerre_derivative(spec: LaguerreSpec, t):
    """d/dt L_q^(alpha)(t) = -L_{q-1}^(alpha+1)(t); degree 0 is rejected."""
    if spec.degree < 1:
        raise ValueError("derivative requires degree >= 1")
    val = laguerre_eval(LaguerreSpec(spec.degree - 1, spec.alpha + 1.0), t)
    return -val


def _newton_step(q: int, alpha, z: np.ndarray) -> np.ndarray:
    """One Newton step for L_q^(alpha) from z.

    alpha is a scalar or a column against the rows of z.  One recurrence
    gives L_{q-1} and L_q; the slope is t L_q' = q L_q - (q+alpha) L_{q-1}.
    Where the step is not finite (the recurrence overflows at high degree)
    z is kept.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lower, resid = laguerre_eval_batch(np.array([q - 1, q]).reshape((2,) + (1,) * z.ndim), alpha, z)
        step = resid / ((q * resid - (q + alpha) * lower) / z)
    return z - np.where(np.isfinite(step), step, 0.0)


def positive_zeros(q: int, alpha) -> np.ndarray:
    """Strictly positive zeros of L_q^(alpha), ascending, for alpha > -1.

    A scalar alpha gives shape (q,); an array of m parameters gives (m, q),
    one ascending row per parameter, each equal to its scalar call bit for
    bit.  Eigenvalues of the q x q Jacobi matrices (diagonal 2i+alpha+1,
    off-diagonal sqrt(i(i+alpha))), all from one stacked eigvalsh call,
    followed by one Newton step.
    """
    q = _index("degree q", q)
    a = _each(finite_real, float, "alpha", alpha, -1.0, None, "positive_zeros requires alpha > -1")
    batch = a.shape
    a = a[:, None] if batch else float(a)
    if q == 0:
        return np.empty(batch + (0,))
    i = np.arange(q)
    jacobi = np.zeros(batch + (q * q,))
    jacobi[..., :: q + 1] = 2.0 * i + a + 1.0
    # eigvalsh reads the lower triangle: entry (i, i-1) sits at flat index q + (i-1)(q+1).
    jacobi[..., q :: q + 1] = np.sqrt(i[1:] * (i[1:] + a))
    z = np.linalg.eigvalsh(jacobi.reshape(batch + (q, q)))
    return np.sort(_newton_step(q, a, z))


def nodal_zeros(q: int, k) -> np.ndarray:
    """Positive zeros of L_q^(k-q) for angular index k >= 0, ascending.

    By the reflection identity they are the zeros of L_min(k,q)^(|k-q|):
    for 0 < k < q the k zeros of L_k^(q-k), none at k = 0 (no eigensolve).
    An array of indices gives one row per index from one stacked solve,
    as positive_zeros does for its parameters; each must be k >= q.
    """
    if np.ndim(k) == 0 and k < q:
        return positive_zeros(k, float(q - k)) if k > 0 else np.empty(0)
    ks = np.asarray(k, dtype=float)
    if np.any(ks < q):
        raise ValueError(f"an array of angular indices needs every k >= q = {q}, got k = {ks[ks < q][0]:g}")
    return positive_zeros(q, ks - q)


def laguerre_zeros(spec: LaguerreSpec) -> list[tuple[float, int]]:
    """Zeros of L_q^(alpha) with multiplicities, ascending.

    alpha > -1: q simple positive zeros.  alpha = k - q with 0 <= k < q:
    a null root of order q - k plus the nodal_zeros(q, k).  Other
    alpha <= -1 are rejected.
    """
    q, a = spec.degree, spec.alpha
    if q == 0:
        return []
    if a > -1:
        return [(float(z), 1) for z in positive_zeros(q, a)]
    k = round(q + a)  # a is finite (LaguerreSpec), so round gives an int
    if not (0 <= k < q and abs(a - (k - q)) <= _INT_TOL):
        raise ValueError(f"alpha={a} not admissible: need alpha > -1 or alpha = k - q with 0 <= k < q")
    return [(0.0, q - k)] + [(float(z), 1) for z in nodal_zeros(q, k)]


def gauss_laguerre_log_rule(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight e^{-t} t^alpha: nodes and log-weights, as read-only arrays.

    Nodes are Jacobi-matrix eigenvalues polished by two Newton steps;
    weights come from the closed form
        w_i = Gamma(n+alpha+1)/n! * t_i / ((n+1) L_{n+1}^(alpha)(t_i))^2,
    evaluated in log space.  Each (n, alpha) is built once per process and
    shared by every caller (_log_rule).  Past n = MAX_RULE_NODES = 362, or
    where L_{n+1}^(alpha) overflows at the largest node (a larger alpha, from
    n = 356 at alpha = 50), the weights leave the double range: ValueError
    naming n, with no numpy warning.
    """
    n = _index("node count n", n, 1)
    if n > MAX_RULE_NODES:
        raise ValueError(f"Gauss-Laguerre rule with n = {n} nodes: past MAX_RULE_NODES = {MAX_RULE_NODES}, "
                         "where the weights leave the double range")
    return _log_rule(n, finite_real("alpha", alpha, -1.0, words="Gauss-Laguerre rule requires alpha > -1"))


@lru_cache(maxsize=None)
def _log_rule(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The cached body of gauss_laguerre_log_rule; cache_clear() drops every rule."""
    t = _newton_step(n, alpha, positive_zeros(n, alpha))
    with np.errstate(over="ignore", invalid="ignore"):
        lnext = laguerre_eval_batch(n + 1, alpha, t)
        logw = (
            math.lgamma(n + alpha + 1)
            - math.lgamma(n + 1)
            + np.log(t)
            - 2.0 * np.log((n + 1) * np.abs(lnext))
        )
    if not np.isfinite(logw).all():
        raise ValueError(f"Gauss-Laguerre rule with n = {n} nodes at alpha = {alpha:g}: "
                         "the weights leave the double range")
    t.setflags(write=False)
    logw.setflags(write=False)
    return t, logw


def gauss_laguerre_rule(n: int, alpha: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule integrating int_0^inf e^{-t} t^alpha f(t) dt."""
    t, logw = gauss_laguerre_log_rule(n, alpha)
    return t, np.exp(logw)


def _norm_squared(q: int, alpha: float) -> float:
    """Gamma(alpha+1) C(q+alpha, q), the integral of e^{-t} t^alpha L_q^(alpha)(t)^2."""
    if alpha >= 0 and abs(alpha - round(alpha)) <= _INT_TOL:
        # Gamma(alpha+1) C(q+alpha, q) = (q+alpha)!/q! for integer alpha.
        return float(math.factorial(q + round(alpha)) // math.factorial(q))
    return math.exp(math.lgamma(q + alpha + 1) - math.lgamma(q + 1))


def orthogonality_defect(q, p, alpha: float):
    """|quadrature of e^{-t} t^alpha L_q L_p  -  Gamma(alpha+1) C(q+alpha,q) delta_qp|.

    The quadrature is the ceil((q+p)/2)+1-node Gauss rule, which
    integrates degree q+p exactly.  q and p may be integer arrays,
    broadcast together against the one alpha: the pairs sharing a rule
    size share one gauss_laguerre_rule and one laguerre_eval_batch over
    the degrees 0..max, and each defect equals its scalar call bit for
    bit.  Scalar degrees give a float, arrays an array of their
    broadcast shape.  A degree that is not an integer is refused by name
    ("degree q" or "degree p"), a negative one as "degree must be >= 0".
    """
    alpha = finite_real("alpha", alpha, -1.0, words="orthogonality requires alpha > -1")
    qs, ps = np.broadcast_arrays(*(_each(_index, int, name, x, -math.inf) for name, x in (("degree q", q), ("degree p", p))))
    for degrees in (qs, ps):
        if (degrees < 0).any():
            raise ValueError(f"degree must be >= 0, got {int(degrees[degrees < 0][0])}")
    nodes = (qs + ps + 1) // 2 + 1
    integral = np.empty(qs.shape)
    for n in sorted(set(nodes.ravel().tolist())):
        on = nodes == n
        qn, pn = qs[on], ps[on]
        t, w = gauss_laguerre_rule(n, alpha)
        values = laguerre_eval_batch(np.arange(max(qn.max(), pn.max()) + 1)[:, None], alpha, t)
        integral[on] = np.sum(w * values[qn] * values[pn], axis=-1)
    target = [_norm_squared(qi, alpha) if qi == pi else 0.0 for qi, pi in zip(qs.ravel().tolist(), ps.ravel().tolist())]
    defect = np.abs(integral - np.reshape(target, qs.shape))
    return float(defect) if defect.ndim == 0 else defect
