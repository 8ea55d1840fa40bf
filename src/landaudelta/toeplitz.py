"""Truncated singular Berezin-Toeplitz matrices.

The compression of a weighted curve interaction to the level-q Landau
eigenspace has entries

    M_kl = sum_j v(t_j) phi_{k,q}(gamma(t_j)) conj(phi_{l,q}(gamma(t_j))) ds_j,

summed by the periodic trapezoid rule over the arclength nodes and
Hermitian-symmetrized.  On an origin-centred circle of radius r,
phi_{k,q}(r e^{i theta}) = A_{k,q}(r) e^{i(k-q) theta} with
A_{k,q}(r) = phi_{k,q}(r, 0), so the same sum is

    M = S D T(v_hat) D S*,    D_k = sqrt(lambda_{k,q}(r)),

with T(v_hat)_kl = v_hat[l - k] the Toeplitz matrix of the weight's
discrete Fourier coefficients v_hat = FFT(v)/N, S the diagonal of the
phases of A_{k,q}(r) (signs, up to the common factor (-i)^q) and

    lambda_{k,q}(r) = 2 pi r |phi_{k,q}(r, 0)|^2
                    = b r (q!/k!) t^{k-q} L_q^(k-q)(t)^2 e^{-t},  t = b r^2/2,

(the reflected form for k < q).  Circles are assembled this way, from one
basis value per row and one FFT; the matrix is diagonal, with
lambda_{k,q}(r) as its entries, only for constant weights.  Other curves
use the quadrature over basis samples.  Their N -> 2N resolution check
reuses the N-node sum, since the uniform 2N rule holds the N rule at its
even nodes: M_2N = (M_N + M_odd)/2, with M_odd the N-node sum over the
odd nodes, so the check costs N further basis samples, not 2N.  Without
an explicit N the same doubling sizes the rule: it starts where every
basis-product harmonic of a circle sits below Nyquist and stops once a
doubling moves no entry by more than 1e-14 max|M|, which the periodic
trapezoid rule's exponential convergence on smooth curves reaches in
one or two steps (Trefethen & Weideman, SIAM Review 56, 2014).  Kernel
counting for circles defers to the analytic census: truncation produces
spuriously small tail entries, so the matrix-based estimate is a
cross-check, not the authority.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate

import numpy as np

from .census import multiplicity as _census_multiplicity
from .basis import MagneticField, _from_parts, _log_abs, _moduli, _parts_arrays
from .curves import JordanCurve, WeightedCurve, arclength_rule, quadrature_size
from .laguerre import _index, finite_real

__all__ = [
    "RowLayout",
    "ToeplitzMatrix",
    "SpectrumResult",
    "KernelEstimate",
    "assemble",
    "circle_diagonal",
    "circle_diagonal_log",
    "default_truncation",
    "eigenvalues",
    "flat_index",
    "spectrum",
    "kernel_dim_estimate",
    "matrix_to_json",
    "matrix_from_json",
    "spectrum_to_csv",
]

RESOLUTION_DELTA_TOL = 1e-7
# N=None: double N until the 2N matrix moves no entry by more than this
# fraction of max|M|, or N reaches the cap.
ADAPTIVE_DELTA_RTOL = 1e-14
ADAPTIVE_NODE_CAP = 8192
TAIL_RELATIVE_CUTOFF = 1e-16
MAX_TRUNCATION = 512
# Cells per block of a blocked pass: angular indices x node moduli in the
# truncation sweep, matrix entries in a _blockwise_max read, basis rows x
# nodes in a quadrature fill.  It bounds each pass's temporaries at 64 KiB
# per float and 128 KiB per complex array.
BLOCK_CELLS = 8192


def flat_index(j: int, k: int, K: int) -> int:
    """Row of phi_{k,j} among levels 0, 1, ... at one cut K: RowLayout(range(j + 1), K).index(j, k), checking j, k and K by name."""
    j = _index("level j", j)
    return RowLayout(range(j + 1), (K,) * (j + 1)).index(j, k)  # (K,): a tuple K is refused as a cut


def _read_only(rows: np.ndarray) -> np.ndarray:
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class RowLayout:
    """The rows phi_{k,j} of an interaction matrix, level-major: j in levels, a step-1 range, and k in 0..K_j.

    cuts holds K_j for each level in turn; an int K, every level's cut, is
    stored as that tuple.  The one check of cuts: each is an integer >= 0
    (laguerre._index, as "truncation K"), stored as an int, one per level.
    Each row's j, k and harmonic m = k - j are read-only arrays, built on
    first use, and starts[i] is the first row of levels[i], with starts[-1] = dim.
    """

    levels: range
    cuts: tuple[int, ...]

    def __post_init__(self):
        if not (isinstance(self.levels, range) and self.levels.step == 1 and 0 <= self.levels.start < self.levels.stop):
            raise ValueError(f"rows need a nonempty step-1 range of levels >= 0, got {self.levels!r}")
        cuts = self.cuts if isinstance(self.cuts, tuple) else (self.cuts,) * len(self.levels)
        if len(cuts) != len(self.levels):
            raise ValueError(f"rows need one cut per level of {self.levels!r}, got K = {self.cuts}")
        object.__setattr__(self, "cuts", tuple(_index("truncation K", cut) for cut in cuts))
        object.__setattr__(self, "starts", (0, *accumulate(cut + 1 for cut in self.cuts)))

    # The row arrays are derived on first use, so no field: outside eq, hash and repr.
    @cached_property
    def j(self) -> np.ndarray:
        return _read_only(self.spread(self.levels))

    @cached_property
    def k(self) -> np.ndarray:
        return _read_only(np.arange(self.dim) - self.spread(self.starts[:-1]))

    @cached_property
    def m(self) -> np.ndarray:
        return _read_only(self.k - self.j)

    @property
    def dim(self) -> int:
        return self.starts[-1]

    def spread(self, per_level) -> np.ndarray:
        """The value per_level[i] of level levels[i] on each of its K_i + 1 rows."""
        return np.repeat(per_level, np.add(self.cuts, 1))

    def index(self, j: int, k: int) -> int:
        """Row of phi_{k,j}, the one (j, k) -> row map; a j or k that is not an integer (laguerre._index) raises
        ValueError naming it, and a j outside levels or a k outside 0..K_j one naming j, k and the cuts."""
        # No lower bound here: the row check below names a j or k out of range with the row.
        j, k = _index("level j", j, -math.inf), _index("angular index k", k, -math.inf)
        i = j - self.levels.start
        if j not in self.levels or not 0 <= k <= self.cuts[i]:
            cut = self.cuts[0] if len(set(self.cuts)) == 1 else self.cuts
            raise ValueError(f"no row (j, k) = ({j}, {k}) in levels {self.levels!r} at K = {cut}")
        return self.starts[i] + k

    def block(self, j: int) -> slice:
        """The K_j + 1 rows of level j."""
        start = self.index(j, 0)
        return slice(start, start + self.cuts[j - self.levels.start] + 1)


@dataclass(frozen=True)
class ToeplitzMatrix:
    """Hermitian truncation of the level-q interaction compression."""

    entries: np.ndarray  # (K+1, K+1) complex, exactly Hermitian
    q: int
    K: int
    b: float
    provenance: dict
    underresolved: bool | None = None
    refinement_delta: float | None = None

    def __post_init__(self):
        self.entries.setflags(write=False)

    @cached_property
    def layout(self) -> RowLayout:
        return RowLayout(range(self.q, self.q + 1), self.K)


def _circle_amplitudes(field: MagneticField, layout: RowLayout, r: float):
    """log lambda_{k,j}(r) and unit phases of the rows of layout on a circle.

    On the circle phi_{k,j}(r e^{i theta}) = A_{k,j}(r) e^{i(k-j) theta} with
    A_{k,j}(r) = phi_{k,j}(r, 0), so every row is one basis value:
    lambda_{k,j}(r) = 2 pi r |A_{k,j}(r)|^2 and the phase is that of A.
    """
    r = finite_real("radius", r, 0.0, words="radius must be positive")
    logabs, arg = _parts_arrays(field, layout.k, layout.j, np.array([r, 0.0]))
    return math.log(2.0 * math.pi * r) + 2.0 * logabs, np.exp(1j * arg)


def circle_diagonal_log(field: MagneticField, q: int, k: int, r: float) -> float:
    """log lambda_{k,q}(r); finite iff the entry is nonzero."""
    q, k = _index("level q", q), _index("angular index k", k)
    return float(_circle_amplitudes(field, RowLayout(range(q, q + 1), k), r)[0][k])


def circle_diagonal(field: MagneticField, q: int, k: int, r: float) -> float:
    """Diagonal entry lambda_{k,q}(r) of the circle interaction at level q."""
    return math.exp(circle_diagonal_log(field, q, k, r))


def _node_moduli(field: MagneticField, curve: JordanCurve) -> np.ndarray:
    """basis._moduli of curve.points, or of a circle's one node (r, 0), which is field.modulus(r) bit for bit."""
    return _moduli(field, np.array([[dict(curve.meta)["r"], 0.0]]) if curve.kind == "circle" else curve.points)


def default_truncation(field: MagneticField, q: int, curve: JordanCurve, tail_rel: float = TAIL_RELATIVE_CUTOFF) -> int:
    """Smallest K beyond which entries of the level-q matrix on curve are negligible.

    One rule on every curve.  The profile P_q(k) = 2 max_j log|phi_{k,q}(x_j)|
    reads magnitudes only (basis._log_abs) over the distinct moduli t_j = b|x_j|^2/2
    of the nodes of curve.points, or of the single node (r, 0) on a circle, in
    blocks of angular indices that start at 8 (q + 1 + ceil(max t_j)) and
    double, each at most max(1, BLOCK_CELLS // moduli) indices: a circle
    evaluates a few rows past its K, not all MAX_TRUNCATION.  Past k = q + max t_j,
    q+1 consecutive k with P_q(k) below tail_rel times the running maximum
    certify the tail, and K is the index before them: at most q diagonals
    vanish at any circle radius, so a lone resonant zero cannot stop the sweep.
    A sweep that certifies no tail below MAX_TRUNCATION raises ValueError
    (naming q and max t_j): pass K explicitly there.  A t_j past the double
    range (_node_moduli), or a Laguerre factor past it at a high q and large
    t (basis._log_abs), raises ValueError naming it, as no K can help there.
    A q that is not an integer >= 0, or a tail_rel outside (0, 1), raises
    ValueError naming it.  The one-level case of _level_cuts, the one cut rule.
    """
    return _level_cuts(field, (_index("level q", q),), curve, tail_rel)[0]


def _level_cuts(field: MagneticField, levels, curve: JordanCurve, tail_rel: float) -> tuple[int, ...]:
    """default_truncation's K of each level in levels, in ascending level order, from one sweep.

    Each level keeps its own blocks, running maximum and stop count, so its
    K is the one default_truncation gives it alone.  A block holds every
    open level while their rows times the distinct moduli fit BLOCK_CELLS,
    as on a circle (one modulus), and one _log_abs call serves them all;
    otherwise it holds the first open level alone, as a one-level sweep
    does.  The order of levels decides only the refusal: a level with no
    certified tail raises default_truncation's ValueError once every level
    before it in levels has its K.
    """
    tail_rel = finite_real("tail_rel", tail_rel, 0.0, 1.0, "tail_rel must lie in (0, 1)")
    t = np.sort(_node_moduli(field, curve))
    t = t[np.concatenate([[True], t[1:] != t[:-1]])]  # np.unique's values; its first call imports numpy.ma
    t_peak = float(t[-1])
    log_cut = math.log(tail_rel)
    cap = max(1, BLOCK_CELLS // t.size)
    rows = 8 * (1 + math.ceil(min(t_peak, MAX_TRUNCATION)))  # 8 rows per index before the stop can start
    # Per open level, in the order of levels: its next k, its next block's rows, its running maximum and its count below the cut.
    sweeps = {q: [0, rows + 8 * q, -math.inf, 0] for q in levels}
    cuts = {}
    while sweeps:
        first = next(iter(sweeps))  # the first level of levels still sweeping: its refusal comes first
        if sweeps[first][0] >= MAX_TRUNCATION:
            raise ValueError(f"level {first}: no certified tail below MAX_TRUNCATION = {MAX_TRUNCATION} at t_peak = {t_peak:.6g}; pass K")
        blocks = [(q, k, min(n, cap, MAX_TRUNCATION - k)) for q, (k, n, _, _) in sweeps.items()]
        if sum(size for _, _, size in blocks) * t.size > BLOCK_CELLS:
            blocks = blocks[:1]
        ks = np.concatenate([np.arange(k, k + size) for _, k, size in blocks])
        qs = np.concatenate([np.full(size, q) for q, _, size in blocks])[:, None]
        profile = 2.0 * _log_abs(field, ks[:, None], qs, t)[0].max(axis=1)
        row = 0
        for q, k0, size in blocks:
            _, n, best, below = sweeps[q]
            for k, val in zip(range(k0, k0 + size), profile[row:row + size].tolist()):
                if val > best:  # max(best, val) without the call: a NaN leaves best as it is
                    best = val
                if k > q + t_peak and val < best + log_cut:
                    below += 1
                    if below == q + 1:
                        cuts[q] = k - (q + 1)
                        del sweeps[q]
                        break
                else:
                    below = 0
            else:
                sweeps[q] = [k0 + size, 2 * n, best, below]
            row += size
    return tuple(cut for _, cut in sorted(cuts.items()))


def _quadrature_sums(field: MagneticField, layout: RowLayout, wc: WeightedCurve, n: int):
    """Interaction matrices on the rows of layout over basis samples at n, 2n, 4n, ... nodes.

    Each node set's basis samples Phi are one layout.dim x nodes array,
    filled in row blocks of at most BLOCK_CELLS samples (one row at least)
    straight from the layout's j and k rows, so a block may span levels
    and its temporaries stay one block's; the first block with a Laguerre
    factor past the double range names its first such level (basis._log_abs).
    The sum Phi diag(w) Phi* holds two such arrays: Phi w, and Phi
    conjugated in its own buffer.
    The uniform 2n rule holds the n rule at its even nodes, so each
    doubling halves the last sum and adds half the n-node sum over the new
    odd nodes (weights 2 v ds of the 2n rule): n further basis samples.
    """

    def weighted_sum(points, w):
        phi = np.empty((layout.dim, len(points)), dtype=complex)
        step = max(1, BLOCK_CELLS // len(points))
        for start in range(0, layout.dim, step):
            rows = slice(start, start + step)
            _from_parts(*_parts_arrays(field, layout.k[rows, None], layout.j[rows, None], points), out=phi[rows])
        scaled = phi * w
        return scaled @ np.conjugate(phi, out=phi).T

    points, ds = arclength_rule(wc.curve.resample(n))
    m = weighted_sum(points, wc.sample(n) * ds)
    while True:
        yield 0.5 * (m + m.conj().T)
        n *= 2
        points, ds = arclength_rule(wc.curve.resample(n))
        m = 0.5 * (m + weighted_sum(points[1::2], 2.0 * (wc.sample(n) * ds)[1::2]))


def _harmonic_toeplitz(fold: np.ndarray, layout: RowLayout) -> np.ndarray:
    """The dim^2 table fold[span + m_l - m_k] over the rows of layout, m = k - j.

    Filled block by block: the (K_j + 1) x (K_j' + 1) block of levels j and
    j' is a copy of a strided view of fold, whose middle entry is the
    harmonic difference 0: m_l - m_k is j - j' at the block's corner, falls
    by one along k and rises by one along k'.  So no index table is built
    or read.  The table is returned unnamed, so numpy may evaluate the
    product it enters in place.
    """
    step, middle = fold.strides[0], fold.size // 2
    table = np.empty((layout.dim, layout.dim), dtype=fold.dtype)
    blocks = list(zip(layout.levels, layout.cuts, layout.starts))
    # Views from the ndarray constructor: as_strided costs microseconds more per call.
    for j, K, row in blocks:
        for jp, Kp, col in blocks:
            view = np.ndarray((K + 1, Kp + 1), fold.dtype, fold, (middle + j - jp) * step, (-step, step))
            table[row:row + K + 1, col:col + Kp + 1] = view
    return table


def _circle_sums(field: MagneticField, layout: RowLayout, wc: WeightedCurve, n: int):
    """The same trapezoid sums on an origin-centred circle at n, 2n, 4n, ... nodes.

    M_kl = D_k S_k conj(D_l S_l) v_hat[(m_l - m_k) mod n] with harmonics
    m = k - j and v_hat = FFT(weight samples)/n; the amplitudes do not
    depend on n, so each doubling costs one further FFT of wc.sample(n),
    with no curve rebuilt.  v_hat is folded per n onto the 2 span + 1
    harmonic differences, and _harmonic_toeplitz spreads the fold over the
    block-Toeplitz pattern of the levels, so no size takes a mod over all
    dim^2 shifts and no index table is held.  Two dense complex arrays
    are alive per size: scaled, the outer product of the amplitudes, and
    the table, in whose buffer numpy forms the product; then the matrix
    and the conjugate transpose it adds, as scaled is dropped after each
    product.  Between sizes only the yielded matrix is held.  Keep the
    product as written: numpy may evaluate it in place with the operands
    swapped, and hand-written in-place forms round differently at some
    sizes.
    """
    log_lam, phase = _circle_amplitudes(field, layout, dict(wc.curve.meta)["r"])
    d = np.exp(0.5 * log_lam) * phase
    span = int(layout.m.max() - layout.m.min())
    while True:
        vhat = np.fft.fft(wc.sample(n)) / n
        scaled = d[:, None] * d.conj()[None, :]
        mat = scaled * _harmonic_toeplitz(vhat[np.arange(-span, span + 1) % n], layout)
        del scaled
        mat += mat.conj().T
        mat *= 0.5
        yield mat
        n *= 2


def _blockwise_max(a: np.ndarray, modulus) -> float:
    """max of modulus(rows) over row blocks of a of at most BLOCK_CELLS entries (one row at least).

    modulus(rows) gives the |.| values of the rows of one block, so the
    dense temporaries are one block's, not the matrix's.  The max is
    exact, hence bitwise the whole-matrix expression's, a NaN included.
    A matrix of one block is read in one call, with no per-block overhead.
    """
    step = max(1, BLOCK_CELLS // a.shape[1])
    if step >= a.shape[0]:
        return float(np.max(modulus(slice(None))))
    maxima = (np.max(modulus(slice(i, i + step))) for i in range(0, a.shape[0], step))
    return float(reduce(np.maximum, maxima))  # np.maximum, unlike max(), keeps a NaN wherever it falls


def _start_nodes(layout: RowLayout) -> int:
    """Smallest power of two >= max(64, 2 (largest cut + top level + 1)): every basis-product harmonic below Nyquist."""
    return 1 << (max(64, 2 * (max(layout.cuts) + layout.levels[-1] + 1)) - 1).bit_length()


def _compress(field: MagneticField, layout: RowLayout, wc: WeightedCurve, N: int | None, check_resolution: bool):
    """Interaction matrix on the rows of layout: (entries, provenance, underresolved, delta).

    The one front door of assemble and galerkin.assemble_model, and the one
    home of their provenance (r included on circles).  A curve node whose
    t = b|x|^2/2 overflows the double range raises ValueError naming t, b
    and the largest node radius r, before any basis value.  An explicit N (at
    least MIN_NODES) assembles on N nodes and, with check_resolution, also
    on 2N, reusing the N-node sum (N further samples on general curves,
    one further FFT on circles).  N=None starts at _start_nodes and, with
    check_resolution, doubles through the same sums until the 2N matrix
    moves no entry by more than ADAPTIVE_DELTA_RTOL * max|M| or N reaches
    ADAPTIVE_NODE_CAP; provenance then lists every N tried and its delta.
    Without the check N=None assembles once.  The matrix returned is the
    N-node one, delta is its distance to the 2N matrix, and underresolved
    is set when delta exceeds RESOLUTION_DELTA_TOL * max|M| or a sampled
    curve or weight table has a relative Fourier tail above RESOLUTION_DELTA_TOL
    (curves.WeightedCurve.sample_tails, also in provenance); it is None when
    unchecked and no tail is flagged.  A set flag's causes, the indicators past
    their bound, are provenance["underresolved_by"].  No decision depends on the weight's scale.
    Memory on general curves: two basis arrays of layout.dim x N complex
    samples (16 bytes each) while a sum is formed, beside the N-node matrix
    when checked (_quadrature_sums); on circles, as _circle_sums says.
    """
    _node_moduli(field, wc.curve)  # refuses a t past the double range
    adaptive = N is None
    n = _start_nodes(layout) if adaptive else quadrature_size(N, "node count N")
    circle = wc.curve.kind == "circle"
    sums = (_circle_sums if circle else _quadrature_sums)(field, layout, wc, n)
    entries = next(sums)
    tails = wc.sample_tails()
    provenance = {"curve": wc.curve.describe(), "weight": wc.describe(), "sign_class": wc.sign_class, "N": n}
    if circle:
        provenance["r"] = dict(wc.curve.meta)["r"]
    provenance.update(tails)
    rough = [key for key, tail in tails.items() if tail > RESOLUTION_DELTA_TOL]
    if rough:
        provenance["underresolved_by"] = rough
    if not check_resolution:
        return entries, provenance, True if rough else None, None
    sizes, deltas = [], []
    while True:
        fine = next(sums)
        scale = _blockwise_max(entries, lambda rows: np.abs(entries[rows]))
        sizes.append(n)
        deltas.append(_blockwise_max(fine, lambda rows: np.abs(fine[rows] - entries[rows])))
        if not adaptive or deltas[-1] <= ADAPTIVE_DELTA_RTOL * scale or n >= ADAPTIVE_NODE_CAP:
            break
        entries, n = fine, 2 * n
    provenance["N"] = n
    if adaptive:
        provenance["N_sequence"], provenance["delta_sequence"] = sizes, deltas
    if deltas[-1] > RESOLUTION_DELTA_TOL * scale:
        provenance["underresolved_by"] = ["refinement_delta", *rough]
    return entries, provenance, "underresolved_by" in provenance, deltas[-1]


def assemble(
    field: MagneticField,
    q: int,
    weighted_curve: WeightedCurve,
    K: int | None = None,
    N: int | None = None,
    check_resolution: bool = True,
) -> ToeplitzMatrix:
    """Assemble the (K+1)x(K+1) level-q matrix over the arclength rule.

    Circles take the scaled Toeplitz route, other curves the quadrature
    over basis samples.  K defaults to default_truncation on the curve.
    N=None sizes the rule itself: from the least power of two >=
    max(64, 2(K+q+1)), doubled while check_resolution finds the 2N matrix
    more than 1e-14 max|M| away, up to 8192 nodes; an explicit N (at least
    16) is used as given.  check_resolution flags the matrix underresolved
    when doubling N moves an entry by more than 1e-7 max|M|; a sampled
    curve or weight table whose relative Fourier tail exceeds 1e-7 is
    flagged either way.  q and K follow the package's one integer rule
    (laguerre._index): a q or K that is not an integer >= 0 is refused by name.
    """
    q = _index("level q", q)
    if K is None:
        K = default_truncation(field, q, weighted_curve.curve)
    layout = RowLayout(range(q, q + 1), (K,))  # (K,): a tuple K is refused as a cut, not read as the cuts
    entries, provenance, underresolved, delta = _compress(field, layout, weighted_curve, N, check_resolution)
    return ToeplitzMatrix(entries, q, layout.cuts[0], field.b, provenance, underresolved, delta)


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues in descending order with orthonormal eigenvectors."""

    eigenvalues: np.ndarray  # (m,) real, descending
    eigenvectors: np.ndarray  # (m, m), column i pairs with eigenvalue i
    residuals: np.ndarray  # ||M v - lambda v|| per pair

    def __post_init__(self):
        for arr in (self.eigenvalues, self.eigenvectors, self.residuals):
            arr.setflags(write=False)


def _hermitian_solve(matrix: ToeplitzMatrix | np.ndarray, solver):
    """(entries, solver(entries)) for a nonempty finite square matrix, Hermitian to 1e-12 * max|M| (a zero matrix is).

    Anything but a square 2-D array raises ValueError naming its shape.
    max|M| and the defect max|M - conj(M^T)| are read in row blocks by
    _blockwise_max, each defect block from a contiguous conj(M^T) block
    overwritten by the difference: the same numbers as the plain
    expressions, without their strided pass over a transposed view, and
    with no dense temporary beyond one block.  So the solver's own copy
    of M for LAPACK is the one model-sized array the door adds.
    """
    m = matrix.entries if isinstance(matrix, ToeplitzMatrix) else np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be a square 2-D array, got shape {m.shape}")
    if m.size == 0:
        raise ValueError("empty matrix")
    scale = _blockwise_max(m, lambda rows: np.abs(m[rows]))  # NaN or inf exactly when some entry is
    if not math.isfinite(scale):
        raise ValueError("matrix has non-finite entries")

    def defect(rows):
        adjoint = np.conj(m[:, rows].T, order="C")
        return np.abs(np.subtract(m[rows], adjoint, out=adjoint))

    if _blockwise_max(m, defect) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian")
    try:
        return m, solver(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigensolve failed to converge: {exc}") from exc


def eigenvalues(matrix: ToeplitzMatrix | np.ndarray) -> np.ndarray:
    """Eigenvalues in descending order, for readers of eigenvalues only: no eigenvectors, no residuals."""
    return _hermitian_solve(matrix, np.linalg.eigvalsh)[1][::-1]


def spectrum(matrix: ToeplitzMatrix | np.ndarray) -> SpectrumResult:
    """Hermitian eigendecomposition with per-pair residual checks: the one door to eigenvectors."""
    m, (vals, vecs) = _hermitian_solve(matrix, np.linalg.eigh)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    residuals = np.linalg.norm(m @ vecs - vecs * vals[None, :], axis=0)
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    if not np.all(residuals <= 1e-10 * max(scale, 1e-300)):  # a NaN residual fails too
        worst = float(np.max(residuals))
        raise ValueError(f"eigenpair residual {worst:.3e} exceeds 1e-10 * ||M||")
    return SpectrumResult(vals, vecs, residuals)


@dataclass(frozen=True)
class KernelEstimate:
    """Count of numerically-zero eigenvalues, with the analytic cross-check.

    Truncation makes high angular modes numerically blind to the curve,
    so the matrix count can exceed the true kernel dimension; for
    circles the census value is authoritative.
    """

    count: int
    threshold: float
    census_multiplicity: int | None
    note: str


def kernel_dim_estimate(matrix: ToeplitzMatrix) -> KernelEstimate:
    """Count eigenvalues with |lambda| <= 1e-10 max|lambda| (so no weight scale moves it), from eigenvalues() alone.

    For a circle matrix at q >= 1 the census multiplicity is attached, so
    t = b r^2 / 2 past census.T_MAX raises its ValueError.  An identically
    zero matrix is noted as degenerate (a zero weight), unless it is a
    circle whose every lambda_{k,q}(r), k <= K, underflows the double
    range: the note then says the entries underflow at that t, and the
    census value is attached as for a nonzero circle.
    """
    vals = eigenvalues(matrix)
    scale = float(np.max(np.abs(vals)))
    threshold = 1e-10 * max(scale, 1e-300)
    count = int(np.sum(np.abs(vals) <= threshold))
    note = (
        "truncation adds spuriously small tail entries; treat the count as an upper "
        "envelope of the kernel dimension"
    )
    census_m, r, field = None, matrix.provenance.get("r"), MagneticField(matrix.b)
    underflow = scale == 0.0 and r is not None and not np.exp(_circle_amplitudes(field, matrix.layout, r)[0]).any()
    if underflow:
        t = field.modulus(r)
        note = f"entries underflow at t = b r^2 / 2 = {t:.6g}: every lambda_(k,q)(r), k <= K, is below the double range; {note}"
    if scale == 0.0 and not underflow:
        note = "degenerate input: matrix is identically zero (zero weight?)"
    elif r is not None:
        if matrix.q == 0:
            census_m = 0
            note += "; analytic value for circles at level 0: trivial kernel"
        else:
            census_m, _ = _census_multiplicity(field, matrix.q, r)
            note += "; analytic census value attached for the circle"
    return KernelEstimate(count, threshold, census_m, note)


def matrix_to_json(matrix: ToeplitzMatrix) -> str:
    """Serialize as {meta, re, im}; floats survive round-trips exactly."""
    payload = {
        "meta": {
            "q": matrix.q,
            "K": matrix.K,
            "b": matrix.b,
            "provenance": matrix.provenance,
            "underresolved": matrix.underresolved,
            "refinement_delta": matrix.refinement_delta,
        },
        "re": matrix.entries.real.tolist(),
        "im": matrix.entries.imag.tolist(),
    }
    # No indent: json then takes its C encoder, which writes the same float reprs.
    return json.dumps(payload, allow_nan=False)


def matrix_from_json(text: str) -> ToeplitzMatrix:
    """Inverse of matrix_to_json; ValueError names a missing key, a non-object or bad field
    (q and K JSON integers with q >= 0, b a finite positive number), or bad re/im."""
    payload = json.loads(text)
    try:
        meta, re, im = payload["meta"], payload["re"], payload["im"]
        q, K, b, provenance = meta["q"], meta["K"], meta["b"], dict(meta["provenance"])
        # JSON integers for q and K, a JSON number for b: no bool, string or 1.5 is coerced.
        if not (type(q) is int and type(K) is int and type(b) in (int, float)):
            raise TypeError(f"got q={q!r}, K={K!r}, b={b!r}")
        if q < 0 or not (math.isfinite(b) and b > 0):
            raise ValueError(f"need q >= 0 and a finite b > 0, got q={q!r}, b={b!r}")
    except KeyError as exc:
        raise ValueError(f"matrix JSON has no key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"matrix JSON: payload, meta and provenance must be objects, q, K and b numbers ({exc})") from None
    try:
        re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"matrix JSON: re and im must be arrays of numbers ({exc})") from None
    if not re.shape == im.shape == (K + 1, K + 1):
        raise ValueError(f"matrix JSON: re {re.shape} and im {im.shape} must both be {(K + 1, K + 1)}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix JSON: re and im must hold finite numbers (NaN or Infinity found)")
    flags = meta.get("underresolved"), meta.get("refinement_delta")
    return ToeplitzMatrix(re + 1j * im, q, K, float(b), provenance, *flags)


def spectrum_to_csv(result: SpectrumResult) -> str:
    lines = ["index,eigenvalue,residual"]
    for i, (val, res) in enumerate(zip(result.eigenvalues, result.residuals)):
        lines.append(f"{i},{val:.17g},{res:.17g}")
    return "\n".join(lines) + "\n"
