"""Resonant radii of circles for a fixed Landau level.

A circle of radius r is resonant for level q when t = b r^2 / 2 is a
positive zero of some L_q^(k-q), k = 0, 1, 2, ...; the number of such k
is the kernel dimension m_q(r) of the level-q interaction operator.  The
census enumerates all resonant radii up to a bound by sweeping k,
working throughout in the scale-free variable t and converting to r at
the end.  The zero table behind it solves the parameters k - q >= 0 in
blocks of ZERO_TABLE_BLOCK = 64, one stacked Jacobi eigensolve per
block.  Termination uses the strict growth of every zero in the
parameter: once the smallest zero of L_q^(k-q) exceeds the target no
larger k can contribute.

Also provided: the closed-form sets for q = 1, 2, the zero-curve
functions eta_l(alpha) = sqrt(2 zeta_l(alpha) / b) with their linear
interpolation at negative parameters (one zeta row per alpha; a table
solves all its alpha >= 0 in one stacked call), and the scalar
spectral-gap and coupling-threshold constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import MagneticField
from .laguerre import _INT_TOL, ZERO_MEMBERSHIP_RTOL, nodal_zeros, positive_zeros

# Parameters k - q solved per stacked eigensolve when building a zero table.
ZERO_TABLE_BLOCK = 64

__all__ = [
    "CensusEntry",
    "multiplicity",
    "census",
    "explicit_D12",
    "eta_curve",
    "gap_constants",
    "coupling_lower_bounds",
    "census_to_csv",
    "eta_table_to_csv",
]


@dataclass(frozen=True)
class CensusEntry:
    """One resonant radius with its multiplicity and witnesses.

    Each witness is a pair (k, t) with t = b r^2 / 2 the zero of
    L_q^(k-q) that puts the circle inside the nodal set of phi_{k,q}.
    """

    r: float
    t: float
    multiplicity: int
    witnesses: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if self.multiplicity != len(self.witnesses):
            raise ValueError("multiplicity must equal the number of witnesses")


@lru_cache(maxsize=None)
def _zero_table(q: int, t_cap: float) -> tuple[np.ndarray, np.ndarray]:
    """All (t, k) with t a positive zero of L_q^(k-q), t <= t_cap, sorted by t.

    k < q takes one solve per degree; k >= q is solved ZERO_TABLE_BLOCK
    parameters at a time, up to the first k whose smallest zero passes
    the cap.
    """
    cap = t_cap * (1.0 + ZERO_MEMBERSHIP_RTOL)
    ts = [nodal_zeros(q, k) for k in range(q)]
    ks = [np.full(z.size, k) for k, z in enumerate(ts)]
    start = q
    while True:
        block = np.arange(start, start + ZERO_TABLE_BLOCK)
        rows = nodal_zeros(q, block)
        ts.append(rows.ravel())
        ks.append(np.repeat(block, q))
        if rows[-1, 0] > cap:  # every later k has only larger zeros
            break
        start += ZERO_TABLE_BLOCK
    ts, ks = np.concatenate(ts), np.concatenate(ks)
    kept = ts <= cap
    ts, ks = ts[kept], ks[kept]
    order = np.argsort(ts)
    return ts[order], ks[order]


def _table_bucket(t_max: float) -> float:
    """Cache-friendly cap: the next power of two at or above t_max."""
    return float(2.0 ** math.ceil(math.log2(max(t_max, 1.0))))


def _close(a, b):
    """The membership rule: |a - b| <= ZERO_MEMBERSHIP_RTOL * max(a, b), for scalars or arrays."""
    return abs(a - b) <= ZERO_MEMBERSHIP_RTOL * np.maximum(a, b)


def _witnesses_at(t: float, ts: np.ndarray, ks: np.ndarray) -> list[tuple[int, float]]:
    lo = np.searchsorted(ts, t * (1.0 - 2.0 * ZERO_MEMBERSHIP_RTOL))
    hi = np.searchsorted(ts, t * (1.0 + 2.0 * ZERO_MEMBERSHIP_RTOL))
    return [(int(ks[idx]), float(ts[idx])) for idx in range(lo, hi) if _close(ts[idx], t)]


def multiplicity(field: MagneticField, q: int, r: float) -> tuple[int, list[tuple[int, float]]]:
    """m_q(r) together with the witnessing (k, zero) pairs.

    q = 0 is rejected: the lowest-level operator has trivial kernel for
    every curve and weight, so there is nothing to enumerate.  Witnesses
    are zeros within a relative 1e-9 of t (_close); persistence_check asks
    more, each witness column of the coupling at <= SUPPORT_TOL * max|B|.
    So r = 1 + 1e-10 at b = 2, q = 1 has witness k = 1 here but does not
    persist there (its support_residuals show the 2.6e-10 column).
    """
    if q < 1:
        raise ValueError("multiplicity is defined for q >= 1; the q = 0 kernel is always trivial")
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    t = 0.5 * field.b * r * r
    ts, ks = _zero_table(q, _table_bucket(t))
    witnesses = _witnesses_at(t, ts, ks)
    return len(witnesses), witnesses


def census(field: MagneticField, q: int, r_max: float) -> list[CensusEntry]:
    """All resonant radii in (0, r_max] with multiplicities, ascending.

    Radii whose t values agree to relative 1e-9 are merged and their
    witnesses pooled; distinct entries stay strictly ordered.
    """
    if q < 1:
        raise ValueError("census is defined for q >= 1; the q = 0 kernel is always trivial")
    if not r_max > 0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    t_max = 0.5 * field.b * r_max * r_max
    ts, ks = _zero_table(q, _table_bucket(t_max))
    keep = ts <= t_max * (1.0 + ZERO_MEMBERSHIP_RTOL)
    ts, ks = ts[keep], ks[keep]
    if not ts.size:
        return []
    # A new group starts wherever consecutive zeros differ by more than the tolerance.
    edges = [0, *(np.flatnonzero(~_close(ts[1:], ts[:-1])) + 1).tolist(), ts.size]
    entries: list[CensusEntry] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        t_mean = float(np.mean(ts[lo:hi]))
        r = math.sqrt(2.0 * t_mean / field.b)
        witnesses = tuple(sorted(zip(ks[lo:hi].tolist(), ts[lo:hi].tolist())))
        entries.append(CensusEntry(r, t_mean, len(witnesses), witnesses))
    return entries


def explicit_D12(field: MagneticField, n_max: int) -> dict[str, list[float]]:
    """Closed-form resonant sets for levels 1 and 2, n = 1 .. n_max.

    D1  : r = sqrt((2/b) n)
    D2  : r = sqrt((2/b)((n+1) - sqrt(n+1))) union sqrt((2/b)(n + sqrt(n)))
    D22 : r = sqrt((2/b)(n^2 + n)), the double-multiplicity radii
    D21 : D2 minus D22

    Exact, with no tolerance: the D2 branches meet only at t = u^2 + u,
    which both reach exactly (exact square roots, integer sums below
    2^53), so np.unique drops every coincidence, the doubles of D2 are
    bitwise D22 radii, and radii 9.9e-10 apart (t ~ 251000.5) stay apart.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    b = field.b
    n = np.arange(1, n_max + 1, dtype=float)

    def radii(tvals):
        return np.sqrt(2.0 * np.asarray(tvals) / b)

    d1 = radii(n)
    d2 = np.unique(np.concatenate([radii((n + 1) - np.sqrt(n + 1)), radii(n + np.sqrt(n))]))
    d22 = radii(n * n + n)
    return {
        "D1": [float(x) for x in d1],
        "D2": [float(x) for x in d2],
        "D22": [float(x) for x in d22],
        "D21": [float(x) for x in d2[~np.isin(d2, d22)]],
    }


@lru_cache(maxsize=None)
def _zeros_desc_at_negative(q: int, n: int) -> tuple[float, ...]:
    """Positive zeros of L_q^(-n), descending, via the reflection reduction."""
    return tuple(nodal_zeros(q, q - n)[::-1].tolist())


def _zeta_rows(q: int, alphas: np.ndarray) -> np.ndarray:
    """zeta_1..zeta_q(alpha), the zeros of L_q^(alpha) in descending order, one row per alpha.

    Every alpha >= 0 is solved in one stacked call.  A negative alpha
    within _INT_TOL of an integer -n reads the positive zeros of L_q^(-n);
    in between, rows are interpolated linearly.  Cells past the end of a
    shorter row are nan.
    """
    rows = np.full((alphas.size, q), np.nan)
    nonneg = alphas >= 0
    if nonneg.any():
        rows[nonneg] = positive_zeros(q, alphas[nonneg])[:, ::-1]
    for i in np.flatnonzero(~nonneg).tolist():
        alpha = float(alphas[i])
        if abs(alpha - round(alpha)) <= _INT_TOL:
            row = np.array(_zeros_desc_at_negative(q, -round(alpha)))
        else:
            n_hi = math.floor(alpha)  # interval (n_hi, n_hi + 1)
            lo = np.array(_zeros_desc_at_negative(q, -n_hi))
            hi = np.array(_zeros_desc_at_negative(q, -n_hi - 1)[: lo.size])
            row = lo + (alpha - n_hi) * (hi - lo)
        rows[i, : row.size] = row
    return rows


def eta_curve(field: MagneticField, q: int, ell: int, alpha: float) -> float:
    """Radius curve eta_ell(alpha) = sqrt(2 zeta_ell(alpha) / b).

    zeta_ell extends to [ell - q, inf): at negative integers -n it takes
    the ell-th largest positive zero of L_q^(-n), with linear
    interpolation in between.  Strictly increasing in alpha; lower ell
    dominates where both are defined.
    """
    if q < 1:
        raise ValueError("eta curves require q >= 1")
    if not 1 <= ell <= q:
        raise ValueError(f"curve index must satisfy 1 <= ell <= q, got {ell}")
    if alpha < (ell - q) - _INT_TOL:
        raise ValueError(f"alpha={alpha} below the domain edge {ell - q} of curve {ell}")
    zeta = _zeta_rows(q, np.array([max(alpha, float(ell - q))]))[0, ell - 1]
    return math.sqrt(2.0 * zeta / field.b)


def gap_constants(field: MagneticField, q: int, lam: float) -> tuple[float, float]:
    """Spectral-gap constants 2b/((L_q+lam)(L_{q-1}+lam)) and 2b/((L_q+lam)(L_{q+1}+lam)).

    Requires lam > -b and q >= 1 (the downward gap needs a level below).
    """
    if lam <= -field.b:
        raise ValueError(f"lambda must exceed -b = {-field.b}, got {lam}")
    if q < 1:
        raise ValueError("gap constants require q >= 1")
    lq = field.landau_level(q)
    plus = 2.0 * field.b / ((lq + lam) * (field.landau_level(q - 1) + lam))
    minus = 2.0 * field.b / ((lq + lam) * (field.landau_level(q + 1) + lam))
    return plus, minus


def coupling_lower_bounds(field: MagneticField, q: int, c: float) -> tuple[float, float]:
    """Lower bounds for the coupling thresholds below which the level-q
    eigenspace of the perturbed operator reduces to the kernel of the
    compressed interaction:

        plus  >= 2bc / ((L_q+1)(L_{q-1}+1))
        minus >= 2bc / (2b + (L_q+1)(L_{q+1}+1))

    c > 0 is the trace constant, supplied by the caller.  For q = 0 the
    plus threshold is unconstrained (infinite).
    """
    if not c > 0:
        raise ValueError(f"trace constant must be positive, got {c}")
    if q < 0:
        raise ValueError("level index must be >= 0")
    b = field.b
    lq = field.landau_level(q)
    minus = 2.0 * b * c / (2.0 * b + (lq + 1.0) * (field.landau_level(q + 1) + 1.0))
    if q == 0:
        return math.inf, minus
    plus = 2.0 * b * c / ((lq + 1.0) * (field.landau_level(q - 1) + 1.0))
    return plus, minus


def census_to_csv(entries: list[CensusEntry]) -> str:
    """CSV rows r,t,multiplicity,witness_ks (witness ks ';'-joined)."""
    lines = ["r,t,multiplicity,witness_ks"]
    for e in entries:
        ks = ";".join(str(k) for k, _ in e.witnesses)
        lines.append(f"{e.r:.17g},{e.t:.17g},{e.multiplicity},{ks}")
    return "\n".join(lines) + "\n"


def eta_table_to_csv(field: MagneticField, q: int, alphas) -> str:
    """CSV table alpha,eta_1..eta_q; out-of-domain cells print as nan.

    Each cell is eta_curve's value: the zeta row at alpha, or at the
    domain edge ell - q for alpha within _INT_TOL below it.
    """
    alphas = np.asarray(alphas, dtype=float)
    edges = np.arange(1 - q, 1)
    defined = ~(alphas[:, None] < edges - _INT_TOL)
    cells = np.maximum(alphas[:, None], edges)[defined]
    at, row = np.unique(cells, return_inverse=True)
    zeta = np.full(defined.shape, np.nan)
    zeta[defined] = _zeta_rows(q, at)[row, np.nonzero(defined)[1]]
    eta = np.sqrt(2.0 * zeta / field.b)
    header = "alpha," + ",".join(f"eta_{ell}" for ell in range(1, q + 1))
    lines = [header]
    for a, etas in zip(alphas.tolist(), eta.tolist()):
        lines.append(",".join(f"{x:.17g}" for x in (a, *etas)))
    return "\n".join(lines) + "\n"
