"""Finite Galerkin model of the perturbed Landau Hamiltonian.

On the span of basis functions phi_{k,j}, j <= Q, k <= K_j, the quadratic
form of the perturbed operator is the Hermitian matrix

    H = diag(Lambda_j) + sign * B,
    B_(k,j),(k',j') = sum_nodes v phi_{k,j} conj(phi_{k',j'}) ds.

B is assembled by the same kernels as the single-level matrices of
toeplitz, on the rows (k, j) of a toeplitz.RowLayout, stacked level-major;
its diagonal blocks are those matrices.  On an origin-centred circle
B_(k,j),(k',j') is D_(k,j) S_(k,j) conj(D_(k',j') S_(k',j'))
v_hat[(k'-j') - (k-j)], a diagonally scaled block-Toeplitz matrix built
from one FFT of the weight; other curves use the quadrature over basis
samples.

The truncation is an uncontrolled approximation of the continuous
operator, so only statements that are exact in finite sections are
asserted: nodal-vector persistence of Landau levels at resonant radii,
read off the vanishing witness columns of B with no eigensolver, and
Weyl monotonicity under sign-definite weights.  Eigenvalue positions
between levels are reported, never certified.

The default angular cutoff of level j, K_j, keeps only modes whose
truncation profile stays above 1e-4 of the peak: beyond that, modes are
numerically blind to the curve and would pile spurious eigenvalues onto
the bare Landau levels, masking the resonant/non-resonant dichotomy.
All census witnesses sit well inside this cutoff.  Every K_j is
toeplitz.default_truncation's at that tail, read for all levels from one
sweep by toeplitz._level_cuts, the one cut rule; RowLayout.index is the
one (j, k) -> row map, and flat_index reads it.  persistence_check cuts
each level at its own K_j; model_truncation gives the largest, a single
cut for every level of a model.  persistence_check builds one coupling
and forms both signs' Hamiltonians in its buffer, one after the other.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .census import multiplicity as _census_multiplicity
from .basis import MagneticField
from .curves import JordanCurve, WeightedCurve, load_weight, make_circle, quadrature_size
from .laguerre import _index
from .toeplitz import RowLayout, _blockwise_max, _compress, _level_cuts, eigenvalues, flat_index

__all__ = [
    "GalerkinModel",
    "LevelCluster",
    "ClusterReport",
    "PersistenceResult",
    "assemble_model",
    "model_truncation",
    "cluster_report",
    "persistence_check",
    "flat_index",
]

EXACT_HIT_TOL = 1e-9
SUPPORT_TOL = 1e-12
MODEL_TAIL_CUTOFF = 1e-4


@dataclass(frozen=True)
class GalerkinModel:
    field: MagneticField
    Q: int
    K: int | tuple[int, ...]  # every level's cut, or (K_0, ..., K_Q)
    sign: int
    matrix: np.ndarray  # diag(Lambda) + sign * coupling
    coupling: np.ndarray
    provenance: dict
    underresolved: bool | None = None
    refinement_delta: float | None = None

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.coupling.setflags(write=False)

    @cached_property
    def layout(self) -> RowLayout:
        return RowLayout(range(self.Q + 1), self.K)

    def levels(self) -> np.ndarray:
        return np.array([self.field.landau_level(j) for j in range(self.Q + 1)])


def _hamiltonian(field: MagneticField, layout: RowLayout, coupling: np.ndarray, sign: int, out=None) -> np.ndarray:
    """diag(Lambda_j) + sign * coupling, in out if given (the coupling's own buffer may be it)."""
    lam = layout.spread([field.landau_level(j) for j in layout.levels])
    # Exactly Hermitian: the coupling is, and the diagonal is real.  0.0 +- B
    # is sign * B with every zero +0.0, as diag(Lambda) + sign * B has them.
    h = np.add(0.0, coupling, out=out) if sign > 0 else np.subtract(0.0, coupling, out=out)
    h.reshape(-1)[:: h.shape[0] + 1] += lam
    return h


def model_truncation(field: MagneticField, Q: int, curve: JordanCurve) -> int:
    """Default angular cutoff on curve, worst level included: the largest of toeplitz._level_cuts over levels 0..Q at tail_rel = 1e-4."""
    return max(_level_cuts(field, range(_index("level cutoff Q", Q) + 1), curve, MODEL_TAIL_CUTOFF))


def assemble_model(
    field: MagneticField,
    Q: int,
    K: int | tuple[int, ...],
    weighted_curve: WeightedCurve,
    sign: int,
    N: int | None = None,
    check_resolution: bool = True,
) -> GalerkinModel:
    """Assemble H = diag(Lambda_j) + sign * B on levels 0..Q, indices 0..K_j at level j.

    K is an int, every level's cut, or the tuple (K_0, ..., K_Q); the rows
    are those of toeplitz.RowLayout(range(Q + 1), K).  N and the N -> 2N
    check are as in toeplitz.assemble: N=None starts at the least power of
    two >= max(64, 2(max K_j + Q + 1)) and doubles while the check runs and
    moves an entry by more than 1e-14 max|B|; an explicit N (at least 16)
    is used as given; the underresolved flag is relative to max|B|.
    Q and the cuts follow the package's one integer rule (laguerre._index,
    and RowLayout for the cuts); a sign that is not the integer +1 or -1
    (True and 1.0 included) is refused by name.  Memory on a general curve:
    about two basis arrays of n x N complex samples, n = sum_j (K_j + 1),
    while the coupling is summed (toeplitz._compress).
    """
    layout = RowLayout(range(_index("level cutoff Q", Q) + 1), K)
    try:
        integral = _index("coupling sign", sign, -1)
    except ValueError:
        integral = None
    if integral not in (+1, -1):
        raise ValueError(f"coupling sign must be +1 or -1, got {sign}")
    coupling, provenance, underresolved, delta = _compress(field, layout, weighted_curve, N, check_resolution)
    h = _hamiltonian(field, layout, coupling, sign)
    cuts = layout.cuts if isinstance(K, tuple) else layout.cuts[0]
    return GalerkinModel(field, layout.levels[-1], cuts, sign, h, coupling, provenance, underresolved, delta)


@dataclass(frozen=True)
class LevelCluster:
    level_index: int
    landau_level: float
    eigenvalues: list[float]
    offsets: list[float]
    exact_hits: list[float]

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    @property
    def min_offset(self) -> float:
        return min((abs(o) for o in self.offsets), default=math.nan)

    @property
    def max_offset(self) -> float:
        return max((abs(o) for o in self.offsets), default=math.nan)


@dataclass(frozen=True)
class ClusterReport:
    clusters: list[LevelCluster]

    def level(self, j: int) -> LevelCluster:
        return self.clusters[j]

    def to_json(self) -> str:
        payload = {
            "levels": [
                {
                    "Lambda": c.landau_level,
                    "eigenvalues": c.eigenvalues,
                    "offsets": c.offsets,
                    "exact_hits": c.exact_hits,
                    "count": c.count,
                    "min_offset": c.min_offset,
                    "max_offset": c.max_offset,
                }
                for c in self.clusters
            ]
        }
        return json.dumps(payload, indent=1)


def cluster_report(model: GalerkinModel) -> ClusterReport:
    """Assign eigenvalues (toeplitz.eigenvalues, no eigenvectors) to the nearest Landau level and report offsets."""
    vals = eigenvalues(model.matrix)[::-1]  # ascending
    levels = model.levels()
    nearest = np.argmin(np.abs(vals[:, None] - levels[None, :]), axis=1)
    clusters = []
    for j, lam in enumerate(levels):
        mine = vals[nearest == j]
        offsets = mine - lam
        hits = mine[np.abs(offsets) < EXACT_HIT_TOL]
        clusters.append(
            LevelCluster(
                j,
                float(lam),
                [float(v) for v in mine],
                [float(o) for o in offsets],
                [float(h) for h in hits],
            )
        )
    return ClusterReport(clusters)


@dataclass(frozen=True)
class PersistenceResult:
    """Outcome of the resonance persistence test at one radius."""

    persists: bool
    witnesses: tuple[int, ...]
    details: dict

    def to_json(self) -> str:
        return json.dumps({"persists": self.persists, "witnesses": list(self.witnesses), "details": self.details}, indent=1)


def persistence_check(
    field: MagneticField,
    q: int,
    r: float,
    K: int | None = None,
    Q: int | None = None,
    weight=1.0,
    N: int | None = None,
) -> PersistenceResult:
    """Does the Landau level survive a circle interaction of radius r?

    True iff r is a census radius of level q and each witness column of
    the coupling vanishes: ||B e_w|| <= SUPPORT_TOL * max|B|.  Then, as
    (H - Lambda_q) e_w = sign * B e_w, every witness basis vector is an
    eigenvector at Lambda_q for both signs, whatever the weight.  details
    holds these norms per sign ("support_residuals") and, as diagnostics
    from one toeplitz.eigenvalues solve per sign (no eigenvectors),
    "near_count" and "min_offset".  One weighted circle, make_circle(r,
    n=N) with the weight, serves the default cuts and the coupling, so a
    bad r, N or weight is reported before a cut that leaves out a census
    witness (also a ValueError).

    The model's rows are RowLayout(range(Q + 1), K) for an explicit K;
    otherwise each level j is cut at its own default K_j at
    MODEL_TAIL_CUTOFF (toeplitz._level_cuts, the cuts model_truncation
    takes the largest of).  details lists the cuts ("cuts") and level q's
    ("K").  The census names witnesses within a relative 1e-9 in t, but
    the verdict needs each witness column at <= SUPPORT_TOL = 1e-12 *
    max|B|.  So r = 1 + 1e-10 at b = 2, q = 1 names k = 1 yet does not
    persist: its support_residuals read 2.6e-10.  The witnesses come from
    census.multiplicity, asked before the default cuts, so t = b r^2 / 2
    past census.T_MAX raises its ValueError; a level whose default cut
    finds no tail below toeplitz.MAX_TRUNCATION raises too (pass K), level
    q first.  Before any of this, the package's one integer rule
    (laguerre._index) refuses by name a q below 1, a Q below q, a K below
    0 and an N that is not an integer (an N below 16 as make_circle does).

    Memory: about two dense complex arrays of the model's size, its
    RowLayout's dim n = sum_j (K_j + 1), at once, 16 n^2 bytes each.  The
    circle kernel holds two while it forms the coupling: the amplitudes'
    outer product and the table the product is formed in, then the
    coupling and the conjugate transpose it adds.  The witness columns and
    max|B| are read from the coupling; then H+ and after it H- are formed
    in the coupling's own buffer, its diagonal saved and put back between
    them, so each eigensolve sees one model-sized array beside LAPACK's
    copy of it, and the Hermitian check reads row blocks.  At q = 40, r = 5 (n = 4,474)
    that is about 2 x 320 MB.
    """
    q = _index("level q", q, 1)
    Q = _index("level cutoff Q", q + 2 if Q is None else Q, q)
    K = None if K is None else _index("truncation K", K)
    N = None if N is None else quadrature_size(N, "node count N")
    wc = load_weight(make_circle(r, n=N), weight)
    _, witnesses = _census_multiplicity(field, q, r)
    levels = (q, *range(q), *range(q + 1, Q + 1))  # level q first: a refusal (no certified tail) names q if q has none
    layout = RowLayout(range(Q + 1), K if K is not None else _level_cuts(field, levels, wc.curve, MODEL_TAIL_CUTOFF))
    K_q = layout.cuts[q]
    witness_ks = tuple(k for k, _ in witnesses)
    if any(k > K_q for k in witness_ks):
        raise ValueError(f"census witness k = {max(witness_ks)} of level {q} lies beyond K = {K_q}")
    # One coupling serves both signs: its witness columns and max|B| are read
    # first, then H+ and H- are formed in its buffer, one after the other.
    coupling = _compress(field, layout, wc, N, False)[0]
    columns = coupling[:, [layout.index(q, k) for k in witness_ks]]
    residuals = np.linalg.norm(columns, axis=0) / (_blockwise_max(coupling, lambda rows: np.abs(coupling[rows])) or 1.0)
    diagonal = coupling.diagonal().copy()
    lam_q = field.landau_level(q)
    details: dict = {"Lambda_q": lam_q, "Q": Q, "K": K_q, "cuts": list(layout.cuts)}
    for sign in (+1, -1):
        if sign < 0:  # B's own diagonal back: 0.0 - (0.0 + B) is 0.0 - B bit for bit off it
            np.fill_diagonal(coupling, diagonal)
        offsets = np.abs(eigenvalues(_hamiltonian(field, layout, coupling, sign, out=coupling)) - lam_q)
        details[f"sign_{'+' if sign > 0 else '-'}"] = {
            "near_count": int(np.sum(offsets < EXACT_HIT_TOL)),
            "min_offset": float(np.min(offsets)),
            "support_residuals": residuals.tolist(),
        }
    persists = bool(witness_ks) and bool(np.all(residuals <= SUPPORT_TOL))
    return PersistenceResult(persists, witness_ks, details)
