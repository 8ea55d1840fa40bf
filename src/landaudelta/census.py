"""Resonant radii of circles for a fixed Landau level.

A circle of radius r is resonant for level q when t = b r^2 / 2 is a
positive zero of some L_q^(k-q), k = 0, 1, 2, ...; the number of such k
is the kernel dimension m_q(r) of the level-q interaction operator.  The
census enumerates all resonant radii up to a bound by sweeping k,
working throughout in the scale-free variable t and converting to r at
the end; t past T_MAX = 1e4 is refused with a ValueError.  Entries are
immutable named tuples (r, t, multiplicity, witnesses): they unpack, and
they compare equal to the plain 4-tuple of their values.  Each level
keeps one zero table, grown on demand: the k < q rows are solved once,
and the parameters k - q >= 0 are appended in blocks of
ZERO_TABLE_BLOCK = 64, one stacked Jacobi eigensolve per block.
Completeness uses the strict growth of every zero in the parameter:
once the smallest zero of L_q^(k-q) exceeds the target no larger k can
contribute.

Also provided: the closed-form sets for q = 1, 2, the zero-curve
functions eta_l(alpha) = sqrt(2 zeta_l(alpha) / b) with their linear
interpolation at negative parameters (one zeta row per alpha; a table
solves all its alpha >= 0 in one stacked call), and the scalar
spectral-gap and coupling-threshold constants.
"""

from __future__ import annotations

import dataclasses
import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .basis import MagneticField
from .laguerre import _INT_TOL, nodal_zeros, positive_zeros

# Relative tolerance used when testing membership t in zeros(spec).
ZERO_MEMBERSHIP_RTOL = 1e-9
# Parameters k - q solved per stacked eigensolve when a level's zero table grows.
ZERO_TABLE_BLOCK = 64
# Largest t = b r^2 / 2 that census and multiplicity accept.  At q = 1 a table
# for t = 1e8 was still growing after 5 s, and one for t = inf never stops.
# The limit is on t alone: a level-q table reaching t holds about q t zeros
# and costs more than linearly in q (t = 1e4 on 2 cores: q = 20 in 0.22 s,
# q = 40 in 1.13 s), so a large q can still be slow below it.  Tests, demos
# and verify stay below t = 850.
T_MAX = 1e4

__all__ = [
    "CensusEntry",
    "multiplicity",
    "multiplicities",
    "census",
    "explicit_D12",
    "eta_curve",
    "gap_constants",
    "coupling_lower_bounds",
    "census_to_csv",
    "eta_table_to_csv",
]


@dataclasses.dataclass(frozen=True, init=False, repr=False, eq=False)
class CensusEntry(namedtuple("CensusEntry", "r t multiplicity witnesses")):
    """One resonant radius with its multiplicity and witnesses, as an immutable named tuple.

    Each witness is a pair (k, t) with t = b r^2 / 2 the zero of
    L_q^(k-q) that puts the circle inside the nodal set of phi_{k,q}.
    The constructor, _make and _replace check multiplicity == len(witnesses).
    The frozen dataclass fields keep dataclasses.replace, asdict and fields
    working on entries; equality, hash and repr are the named tuple's.
    """

    __slots__ = ()
    # field() keeps the inherited tuple getters from becoming field defaults.
    r: float = dataclasses.field()
    t: float = dataclasses.field()
    multiplicity: int = dataclasses.field()
    witnesses: tuple[tuple[int, float], ...] = dataclasses.field()

    def __new__(cls, r: float, t: float, multiplicity: int, witnesses: tuple[tuple[int, float], ...]):
        return cls._make((r, t, multiplicity, witnesses))

    @classmethod
    def _make(cls, iterable) -> CensusEntry:
        entry = super()._make(iterable)
        if entry.multiplicity != len(entry.witnesses):
            raise ValueError("multiplicity must equal the number of witnesses")
        return entry


class _LevelZeros:
    """Positive zeros of L_q^(k-q) over every k solved so far, sorted by t, ties by ascending k.

    k < q takes one solve per degree, once.  k >= q is appended
    ZERO_TABLE_BLOCK parameters at a time; reach, the smallest zero of the
    last k solved, bounds every zero of the k not yet solved from below.
    """

    def __init__(self, q: int):
        self.q = q
        zeros = [nodal_zeros(q, k) for k in range(q)]
        self.ts = np.concatenate([np.empty(0), *zeros])
        self.ks = np.repeat(np.arange(q), [z.size for z in zeros])
        self.next_k = q
        self.reach = 0.0  # every zero is positive, so nothing is certified yet

    def upto(self, cap: float) -> tuple[np.ndarray, np.ndarray]:
        """(ts, ks) holding every zero t <= cap; zeros past cap may follow."""
        if self.reach <= cap:
            ts, ks = [self.ts], [self.ks]
            while self.reach <= cap:
                block = np.arange(self.next_k, self.next_k + ZERO_TABLE_BLOCK)
                rows = nodal_zeros(self.q, block)
                ts.append(rows.ravel())
                ks.append(np.repeat(block, self.q))
                self.next_k += ZERO_TABLE_BLOCK
                self.reach = float(rows[-1, 0])
            ts, ks = np.concatenate(ts), np.concatenate(ks)
            # Stable: ties keep the table's order, ascending k, as every new k is larger.
            order = np.argsort(ts, kind="stable")
            self.ts, self.ks = ts[order], ks[order]
        return self.ts, self.ks


@lru_cache(maxsize=None)
def _level_zeros(q: int) -> _LevelZeros:
    """The one zero table of level q, grown on demand; cache_clear() drops it."""
    return _LevelZeros(q)


def _close(a, b):
    """The membership rule: |a - b| <= ZERO_MEMBERSHIP_RTOL * max(a, b), for scalars or arrays."""
    return abs(a - b) <= ZERO_MEMBERSHIP_RTOL * np.maximum(a, b)


_WINDOW_LO, _WINDOW_HI = 1.0 - 2.0 * ZERO_MEMBERSHIP_RTOL, 1.0 + 2.0 * ZERO_MEMBERSHIP_RTOL


def _window(t):
    """Bisection bounds t (1 -/+ 2 ZERO_MEMBERSHIP_RTOL) of scalar or array t; every zero _close to t is inside."""
    return t * _WINDOW_LO, t * _WINDOW_HI


def multiplicity(field: MagneticField, q: int, r: float) -> tuple[int, list[tuple[int, float]]]:
    """m_q(r) together with the witnessing (k, zero) pairs, in ascending k as census lists them.

    q = 0 is rejected: the lowest-level operator has trivial kernel for
    every curve and weight, so there is nothing to enumerate.  Witnesses
    are zeros within a relative 1e-9 of t (_close); persistence_check asks
    more, each witness column of the coupling at <= SUPPORT_TOL * max|B|.
    So r = 1 + 1e-10 at b = 2, q = 1 has witness k = 1 here but does not
    persist there (its support_residuals show the 2.6e-10 column).
    Two bisections of the level's zero table bound the candidates.  When
    they bracket none, as for almost every radius, the call returns
    (0, []) at once; otherwise the candidates are read as Python scalars:
    a call builds no array per radius.  r must be positive and finite,
    and t = b r^2 / 2 at most T_MAX = 1e4: the zero table grows until it
    passes t, so a huge t would tie it up and t = inf would never end.
    multiplicities gives the counts alone for an array of radii in one pass.
    """
    if q < 1:
        raise ValueError("multiplicity is defined for q >= 1; the q = 0 kernel is always trivial")
    if not 0 < r < math.inf:
        raise ValueError(f"radius must be positive and finite, got {r}")
    t = 0.5 * field.b * r * r
    if not t <= T_MAX:
        raise ValueError(f"t = b r^2 / 2 = {t} is past the census limit T_MAX = {T_MAX:g}")
    lo_t, hi_t = _window(t)
    ts, ks = _level_zeros(q).upto(hi_t)
    lo, hi = ts.searchsorted(lo_t), ts.searchsorted(hi_t)
    if lo == hi:
        return 0, []
    witnesses = sorted([(k, z) for k, z in zip(ks[lo:hi].tolist(), ts[lo:hi].tolist()) if _close(z, t)])
    return len(witnesses), witnesses


def multiplicities(field: MagneticField, q: int, radii) -> np.ndarray:
    """m_q(r) for every radius, as an integer array of the shape of radii; each equals multiplicity(field, q, r)[0].

    One array pass: the level's zero table grows once, to the largest t,
    two searchsorted calls bracket every radius's candidates with the
    window multiplicity uses, and _close runs only on the radii whose
    window holds a zero.  The input is checked as multiplicity checks it
    (q >= 1, radii positive and finite, t = b r^2 / 2 at most T_MAX),
    with the same messages, naming the first bad radius.  An empty input
    gives an empty array.
    """
    if q < 1:
        raise ValueError("multiplicity is defined for q >= 1; the q = 0 kernel is always trivial")
    r = np.asarray(radii, dtype=float)
    bad = ~((0 < r) & (r < math.inf))
    if bad.any():
        raise ValueError(f"radius must be positive and finite, got {float(r[bad][0])}")
    with np.errstate(over="ignore"):  # a finite r may still overflow t; refused next
        t = 0.5 * field.b * r * r
    past = ~(t <= T_MAX)
    if past.any():
        raise ValueError(f"t = b r^2 / 2 = {float(t[past][0])} is past the census limit T_MAX = {T_MAX:g}")
    counts = np.zeros(r.shape, dtype=int)
    if not r.size:
        return counts
    lo_t, hi_t = _window(t)
    ts, _ = _level_zeros(q).upto(float(hi_t.max()))
    lo, hi = ts.searchsorted(lo_t), ts.searchsorted(hi_t)
    for i in np.flatnonzero(lo < hi).tolist():
        counts.flat[i] = np.count_nonzero(_close(ts[lo.flat[i] : hi.flat[i]], t.flat[i]))
    return counts


def census(field: MagneticField, q: int, r_max: float) -> list[CensusEntry]:
    """All resonant radii in (0, r_max] with multiplicities, ascending.

    Radii whose t values agree to relative 1e-9 are merged and their
    witnesses pooled, in ascending k as multiplicity lists them; distinct
    entries stay strictly ordered.  r_max must be positive and finite,
    with t = b r_max^2 / 2 at most T_MAX = 1e4: the sweep grows the zero
    table until it passes that t.
    """
    if q < 1:
        raise ValueError("census is defined for q >= 1; the q = 0 kernel is always trivial")
    if not 0 < r_max < math.inf:
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    t_max = 0.5 * field.b * r_max * r_max
    if not t_max <= T_MAX:
        raise ValueError(f"t = b r_max^2 / 2 = {t_max} is past the census limit T_MAX = {T_MAX:g}")
    cap = t_max * (1.0 + ZERO_MEMBERSHIP_RTOL)
    ts, ks = _level_zeros(q).upto(cap)
    n = int(np.searchsorted(ts, cap, side="right"))
    if not n:
        return []
    ts, ks = ts[:n], ks[:n]
    # A new group starts wherever consecutive zeros differ by more than the tolerance.
    starts = np.flatnonzero(np.concatenate([[True], ~_close(ts[1:], ts[:-1])]))
    counts = np.diff(np.append(starts, n))
    t_mean = np.add.reduceat(ts, starts) / counts
    r = np.sqrt(2.0 * t_mean / field.b)
    group = np.repeat(np.arange(starts.size), counts)
    order = np.lexsort((ts, ks, group))
    witnesses = tuple(zip(ks[order].tolist(), ts[order].tolist()))
    # Each group holds its own witnesses, so the entries skip the constructor's check.
    return [
        tuple.__new__(CensusEntry, (r_i, t_i, m, witnesses[lo : lo + m]))
        for r_i, t_i, lo, m in zip(r.tolist(), t_mean.tolist(), starts.tolist(), counts.tolist())
    ]


def explicit_D12(field: MagneticField, n_max: int) -> dict[str, list[float]]:
    """Closed-form resonant sets for levels 1 and 2, n = 1 .. n_max.

    D1  : r = sqrt((2/b) n)
    D2  : r = sqrt((2/b)((n+1) - sqrt(n+1))) union sqrt((2/b)(n + sqrt(n)))
    D22 : r = sqrt((2/b)(n^2 + n)), the double-multiplicity radii
    D21 : D2 minus D22

    Exact, with no tolerance: the D2 branches meet only at t = u^2 + u,
    which both reach exactly (exact square roots, integer sums below
    2^53), so dropping equal neighbours after a sort removes every coincidence,
    the doubles of D2 are bitwise D22 radii, and radii 9.9e-10 apart (t ~ 251000.5) stay apart.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    b = field.b
    n = np.arange(1, n_max + 1, dtype=float)

    def radii(tvals):
        return np.sqrt(2.0 * np.asarray(tvals) / b)

    d1 = radii(n)
    d2 = np.sort(np.concatenate([radii((n + 1) - np.sqrt(n + 1)), radii(n + np.sqrt(n))]))
    d2 = d2[np.concatenate([[True], d2[1:] != d2[:-1]])]  # np.unique and np.isin import numpy.ma on first call
    d22 = radii(n * n + n)  # ascending
    in_d22 = d22[np.minimum(np.searchsorted(d22, d2), d22.size - 1)] == d2
    return {
        "D1": [float(x) for x in d1],
        "D2": [float(x) for x in d2],
        "D22": [float(x) for x in d22],
        "D21": [float(x) for x in d2[~in_d22]],
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


def _eta_table(field: MagneticField, q: int, alphas) -> np.ndarray:
    """eta_1..eta_q(alpha), one row per alpha: the one home of the domain rule.

    zeta_ell is defined on [ell - q, inf); alpha within _INT_TOL below the
    edge reads the edge, and cells further below are nan.
    """
    if q < 1:
        raise ValueError("eta curves require q >= 1")
    alphas = np.asarray(alphas, dtype=float)
    edges = np.arange(1 - q, 1)
    defined = ~(alphas[:, None] < edges - _INT_TOL)
    cells = np.maximum(alphas[:, None], edges)[defined]
    at, row = np.unique(cells, return_inverse=True)
    zeta = np.full(defined.shape, np.nan)
    zeta[defined] = _zeta_rows(q, at)[row, np.nonzero(defined)[1]]
    return np.sqrt(2.0 * zeta / field.b)


def eta_curve(field: MagneticField, q: int, ell: int, alpha: float) -> float:
    """Radius curve eta_ell(alpha) = sqrt(2 zeta_ell(alpha) / b).

    zeta_ell extends to [ell - q, inf): at negative integers -n it takes
    the ell-th largest positive zero of L_q^(-n), with linear
    interpolation in between.  Strictly increasing in alpha; lower ell
    dominates where both are defined.  ValueError below the domain edge.
    """
    etas = _eta_table(field, q, [alpha])[0]
    if not 1 <= ell <= q:
        raise ValueError(f"curve index must satisfy 1 <= ell <= q, got {ell}")
    if math.isnan(etas[ell - 1]):
        raise ValueError(f"alpha={alpha} below the domain edge {ell - q} of curve {ell}")
    return float(etas[ell - 1])


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
    for r, t, m, witnesses in entries:
        # Nearly every row has one witness; skipping its join is worth about 9% of census_sweep.
        ks = witnesses[0][0] if m == 1 else ";".join([str(k) for k, _ in witnesses])
        lines.append("%.17g,%.17g,%s,%s" % (r, t, m, ks))
    return "\n".join(lines) + "\n"


def eta_table_to_csv(field: MagneticField, q: int, alphas) -> str:
    """CSV table alpha,eta_1..eta_q of eta_curve's values; out-of-domain cells print as nan."""
    alphas = np.asarray(alphas, dtype=float)
    eta = _eta_table(field, q, alphas)
    header = "alpha," + ",".join(f"eta_{ell}" for ell in range(1, q + 1))
    row = ",".join(["%.17g"] * (q + 1))
    lines = [header] + [row % tuple(cells) for cells in np.column_stack((alphas, eta)).tolist()]
    return "\n".join(lines) + "\n"
