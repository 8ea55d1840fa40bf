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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LaguerreSpec",
    "laguerre_eval",
    "laguerre_eval_batch",
    "laguerre_derivative",
    "laguerre_zeros",
    "positive_zeros",
    "gauss_laguerre_rule",
    "gauss_laguerre_log_rule",
    "orthogonality_defect",
]

# Relative tolerance used when testing membership t in zeros(spec).
ZERO_MEMBERSHIP_RTOL = 1e-9

_INT_TOL = 1e-12


@dataclass(frozen=True)
class LaguerreSpec:
    """Degree q and parameter alpha of a generalized Laguerre polynomial."""

    degree: int
    alpha: float

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")


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


def _admissible_negative_k(q: int, alpha: float) -> int | None:
    """Return k with alpha == k - q, 0 <= k < q, or None if not of that form."""
    k = round(q + alpha)
    if 0 <= k < q and abs(alpha - (k - q)) <= _INT_TOL:
        return k
    return None


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
    a = np.asarray(alpha, dtype=float)
    if (a <= -1).any():
        raise ValueError(f"positive_zeros requires alpha > -1, got {alpha}")
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


def laguerre_zeros(spec: LaguerreSpec) -> list[tuple[float, int]]:
    """Zeros of L_q^(alpha) with multiplicities, ascending.

    alpha > -1: q simple positive zeros.  alpha = k - q with 0 <= k < q:
    a null root of order q - k plus the k simple positive zeros of
    L_k^(q-k).  Other alpha <= -1 are rejected.
    """
    q, a = spec.degree, spec.alpha
    if q == 0:
        return []
    if a > -1:
        return [(float(z), 1) for z in positive_zeros(q, a)]
    k = _admissible_negative_k(q, a)
    if k is None:
        raise ValueError(
            f"alpha={a} not admissible: need alpha > -1 or alpha = k - q with 0 <= k < q"
        )
    out: list[tuple[float, int]] = [(0.0, q - k)]
    if k >= 1:
        out.extend((float(z), 1) for z in positive_zeros(k, q - k))
    return out


def gauss_laguerre_log_rule(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight e^{-t} t^alpha: nodes and log-weights.

    Nodes are Jacobi-matrix eigenvalues polished by two Newton steps;
    weights come from the closed form
        w_i = Gamma(n+alpha+1)/n! * t_i / ((n+1) L_{n+1}^(alpha)(t_i))^2,
    evaluated in log space so very large rules stay finite.
    """
    if n < 1:
        raise ValueError("rule needs at least one node")
    if alpha <= -1:
        raise ValueError(f"Gauss-Laguerre rule requires alpha > -1, got {alpha}")
    t = _newton_step(n, alpha, positive_zeros(n, alpha))
    lnext = laguerre_eval_batch(n + 1, alpha, t)
    logw = (
        math.lgamma(n + alpha + 1)
        - math.lgamma(n + 1)
        + np.log(t)
        - 2.0 * np.log((n + 1) * np.abs(lnext))
    )
    return t, logw


def gauss_laguerre_rule(n: int, alpha: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule integrating int_0^inf e^{-t} t^alpha f(t) dt."""
    t, logw = gauss_laguerre_log_rule(n, alpha)
    return t, np.exp(logw)


def orthogonality_defect(q: int, p: int, alpha: float, nodes: int | None = None) -> float:
    """|quadrature of e^{-t} t^alpha L_q L_p  -  Gamma(alpha+1) C(q+alpha,q) delta_qp|.

    The rule must integrate degree q+p exactly; fewer nodes than
    ceil((q+p)/2)+1 are rejected.
    """
    if alpha <= -1:
        raise ValueError(f"orthogonality requires alpha > -1, got {alpha}")
    min_nodes = math.ceil((q + p) / 2) + 1
    if nodes is None:
        nodes = min_nodes
    if nodes < min_nodes:
        raise ValueError(f"nodes={nodes} too small, need >= {min_nodes} for degrees {q},{p}")
    t, w = gauss_laguerre_rule(nodes, alpha)
    integral = float(np.sum(w * laguerre_eval(LaguerreSpec(q, alpha), t)
                            * laguerre_eval(LaguerreSpec(p, alpha), t)))
    if q != p:
        target = 0.0
    elif alpha >= 0 and abs(alpha - round(alpha)) <= _INT_TOL:
        # Gamma(alpha+1) C(q+alpha, q) = (q+alpha)!/q! for integer alpha.
        target = float(math.factorial(q + round(alpha)) // math.factorial(q))
    else:
        target = math.exp(math.lgamma(q + alpha + 1) - math.lgamma(q + 1))
    return abs(integral - target)
