"""Generalized Laguerre polynomials.

Evaluation by the three-term recurrence in the degree, zeros via the
symmetric tridiagonal Jacobi matrix of the Laguerre weight (with one
Newton polish step), multiplicity-aware zeros at negative integer
parameters through the reflection identity

    L_q^(k-q)(t) = (k!/q!) (-t)^(q-k) L_k^(q-k)(t),   0 <= k < q,

Gauss quadrature for the weight e^{-t} t^alpha, and the orthogonality
defect against the closed-form normalization Gamma(alpha+1) C(q+alpha, q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

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
    q, a = spec.degree, spec.alpha
    t_arr = np.asarray(t, dtype=float)
    if q == 0:
        out = np.ones_like(t_arr)
    else:
        prev = np.ones_like(t_arr)
        cur = 1.0 + a - t_arr
        for n in range(1, q):
            prev, cur = cur, ((2 * n + 1 + a - t_arr) * cur - (n + a) * prev) / (n + 1)
        out = cur
    return out if isinstance(t, np.ndarray) else float(out)


def laguerre_eval_batch(degrees, alphas, t) -> np.ndarray:
    """Evaluate L_n^(alpha)(t) with degrees, parameters and t broadcast together.

    One broadcast run of the laguerre_eval recurrence; each entry is taken
    once its own degree is reached, so it equals laguerre_eval bit for bit.
    A scalar degree runs the plain recurrence, without masks.
    """
    deg = np.asarray(degrees)
    a = np.asarray(alphas, dtype=float)
    top = int(deg.max(initial=0)) if deg.ndim else int(deg)
    if top == 0:
        return np.ones(np.broadcast(deg, a, t).shape)
    out = np.ones(np.broadcast(deg, a, t).shape) if deg.ndim else None
    prev, cur = 1.0, 1.0 + a - t
    for n in range(1, top):
        if out is not None:
            np.copyto(out, cur, where=deg == n)
        prev, cur = cur, ((2 * n + 1 + a - t) * cur - (n + a) * prev) / (n + 1)
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


def positive_zeros(q: int, alpha: float) -> np.ndarray:
    """Strictly positive zeros of L_q^(alpha), ascending, for alpha > -1.

    Eigenvalues of the q x q Jacobi matrix (diagonal 2i+alpha+1,
    off-diagonal sqrt(i(i+alpha))) followed by one Newton step.
    """
    if alpha <= -1:
        raise ValueError(f"positive_zeros requires alpha > -1, got {alpha}")
    if q == 0:
        return np.empty(0)
    diag = 2.0 * np.arange(q) + alpha + 1.0
    i = np.arange(1, q, dtype=float)
    off = np.sqrt(i * (i + alpha))
    z = eigh_tridiagonal(diag, off, eigvals_only=True)
    spec = LaguerreSpec(q, alpha)
    resid = laguerre_eval(spec, z)
    slope = laguerre_derivative(spec, z)
    z = z - np.where(slope != 0.0, resid / slope, 0.0)
    return np.sort(z)


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
    t = positive_zeros(n, alpha)
    spec = LaguerreSpec(n, alpha)
    resid = laguerre_eval(spec, t)
    slope = laguerre_derivative(spec, t)
    t = t - np.where(slope != 0.0, resid / slope, 0.0)
    lnext = laguerre_eval(LaguerreSpec(n + 1, alpha), t)
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
