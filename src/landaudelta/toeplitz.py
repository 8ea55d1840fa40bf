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

import numpy as np

from .census import multiplicity as _census_multiplicity
from .basis import MagneticField, _log_abs, _parts_arrays, basis_matrix
from .curves import JordanCurve, WeightedCurve, arclength_rule, quadrature_size

__all__ = [
    "ToeplitzMatrix",
    "SpectrumResult",
    "KernelEstimate",
    "assemble",
    "circle_diagonal",
    "circle_diagonal_log",
    "default_truncation",
    "eigenvalues",
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
# Cells (angular indices x node moduli) per truncation sweep block: 64 KiB temporaries.
TRUNCATION_CELLS = 8192


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


def _circle_amplitudes(field: MagneticField, levels, ks, r: float):
    """log lambda_{k,j}(r), unit phases and harmonics k - j on a circle.

    Rows run level-major over j in levels and k in ks.  On the circle
    phi_{k,j}(r e^{i theta}) = A_{k,j}(r) e^{i(k-j) theta} with
    A_{k,j}(r) = phi_{k,j}(r, 0), so every row is one basis value:
    lambda_{k,j}(r) = 2 pi r |A_{k,j}(r)|^2 and the phase is that of A.
    """
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    k, j = (grid.ravel() for grid in np.meshgrid(ks, levels))
    logabs, arg = _parts_arrays(field, k, j, np.array([r, 0.0]))
    return math.log(2.0 * math.pi * r) + 2.0 * logabs, np.exp(1j * arg), k - j


def circle_diagonal_log(field: MagneticField, q: int, k: int, r: float) -> float:
    """log lambda_{k,q}(r); finite iff the entry is nonzero."""
    return float(_circle_amplitudes(field, [q], [k], r)[0][0])


def circle_diagonal(field: MagneticField, q: int, k: int, r: float) -> float:
    """Diagonal entry lambda_{k,q}(r) of the circle interaction at level q."""
    return math.exp(circle_diagonal_log(field, q, k, r))


def _node_moduli(field: MagneticField, curve: JordanCurve) -> np.ndarray:
    """Moduli t_j = b|x_j|^2/2 of the nodes of curve; a circle has the one node (r, 0).

    The one home of the overflow refusal: a t past the double range raises
    ValueError naming b and the largest node radius r, without a numpy warning.
    """
    if curve.kind == "circle":
        r = dict(curve.meta)["r"]
        t = np.array([0.5 * field.b * (r * r)])  # Python floats: no warning on overflow
    else:
        x, y = curve.points[:, 0], curve.points[:, 1]
        with np.errstate(over="ignore"):
            t = 0.5 * field.b * (x * x + y * y)
    if not math.isfinite(t.max()):
        r = float(np.max(np.hypot(curve.points[:, 0], curve.points[:, 1])))
        raise ValueError(f"t = b r^2 / 2 is past the double range at b = {field.b:g}, r = {r:g}")
    return t


def default_truncation(field: MagneticField, q: int, curve: JordanCurve, tail_rel: float = TAIL_RELATIVE_CUTOFF) -> int:
    """Smallest K beyond which entries of the level-q matrix on curve are negligible.

    One rule on every curve.  The profile P_q(k) = 2 max_j log|phi_{k,q}(x_j)|
    reads magnitudes only (basis._log_abs) over the distinct moduli t_j = b|x_j|^2/2
    of the nodes of curve.points, or of the single node (r, 0) on a circle, in
    blocks of angular indices that start at 8 (q + 1 + ceil(max t_j)) and
    double, each at most max(1, TRUNCATION_CELLS // moduli) indices: a circle
    evaluates a few rows past its K, not all MAX_TRUNCATION.  Past k = q + max t_j,
    q+1 consecutive k with P_q(k) below tail_rel times the running maximum
    certify the tail, and K is the index before them: at most q diagonals
    vanish at any circle radius, so a lone resonant zero cannot stop the sweep.
    A sweep that certifies no tail below MAX_TRUNCATION raises ValueError
    (naming q and max t_j): pass K explicitly there.  A t_j past the double
    range raises the ValueError of _compress, as no K can help there.
    """
    t = np.sort(_node_moduli(field, curve))
    t = t[np.concatenate([[True], t[1:] != t[:-1]])]  # np.unique's values; its first call imports numpy.ma
    t_peak = float(t[-1])
    log_cut = math.log(tail_rel)
    best, below = -math.inf, 0
    cap = max(1, TRUNCATION_CELLS // t.size)
    start, rows = 0, 8 * (q + 1 + math.ceil(min(t_peak, MAX_TRUNCATION)))  # 8 rows per index before the stop can start
    while start < MAX_TRUNCATION:
        ks = np.arange(start, min(start + min(rows, cap), MAX_TRUNCATION))
        profile = 2.0 * _log_abs(field, ks[:, None], q, t)[0].max(axis=1)
        for k, val in zip(ks.tolist(), profile.tolist()):
            best = max(best, val)
            if k > q + t_peak and val < best + log_cut:
                below += 1
                if below == q + 1:
                    return k - (q + 1)
            else:
                below = 0
        start, rows = start + ks.size, 2 * rows
    raise ValueError(f"level {q}: no certified tail below MAX_TRUNCATION = {MAX_TRUNCATION} at t_peak = {t_peak:.6g}; pass K")


def _quadrature_sums(field: MagneticField, levels, K: int, wc: WeightedCurve, n: int):
    """Interaction matrices on levels x 0..K over basis samples at n, 2n, 4n, ... nodes.

    The uniform 2n rule holds the n rule at its even nodes, so each
    doubling halves the last sum and adds half the n-node sum over the new
    odd nodes (weights 2 v ds of the 2n rule): n further basis samples.
    """

    def weighted_sum(points, w):
        phi = np.vstack([basis_matrix(field, j, range(K + 1), points) for j in levels])
        return (phi * w) @ phi.conj().T

    points, ds = arclength_rule(wc.curve.resample(n))
    m = weighted_sum(points, wc.sample(n) * ds)
    while True:
        yield 0.5 * (m + m.conj().T)
        n *= 2
        points, ds = arclength_rule(wc.curve.resample(n))
        m = 0.5 * (m + weighted_sum(points[1::2], 2.0 * (wc.sample(n) * ds)[1::2]))


def _circle_sums(field: MagneticField, levels, K: int, wc: WeightedCurve, n: int):
    """The same trapezoid sums on an origin-centred circle at n, 2n, 4n, ... nodes.

    M_kl = D_k S_k conj(D_l S_l) v_hat[(m_l - m_k) mod n] with harmonics
    m = k - j and v_hat = FFT(weight samples)/n; the amplitudes do not
    depend on n, so each doubling costs one further FFT of wc.sample(n),
    with no curve rebuilt.  v_hat is folded per n onto the 2 span + 1
    harmonic differences and read through one table of offsets
    m_l - m_k + span, so no size takes a mod over all dim^2 shifts.  At
    most three dense complex arrays are alive per size.  Keep the product
    as written: numpy may evaluate it in place with the operands swapped,
    and hand-written in-place forms round differently at some sizes.
    """
    log_lam, phase, m = _circle_amplitudes(field, levels, np.arange(K + 1), dict(wc.curve.meta)["r"])
    d = np.exp(0.5 * log_lam) * phase
    scaled = d[:, None] * d.conj()[None, :]
    span = int(m.max() - m.min())
    offsets = m[None, :] - m[:, None] + span  # m_l - m_k + span, in 0..2 span
    while True:
        vhat = np.fft.fft(wc.sample(n)) / n
        mat = scaled * vhat[np.arange(-span, span + 1) % n][offsets]
        mat += mat.conj().T
        mat *= 0.5
        yield mat
        n *= 2


def _start_nodes(levels, K: int) -> int:
    """Smallest power of two >= max(64, 2 (K + max level + 1)): every basis-product harmonic below Nyquist."""
    return 1 << (max(64, 2 * (K + max(levels) + 1)) - 1).bit_length()


def _compress(field: MagneticField, levels, K: int, wc: WeightedCurve, N: int | None, check_resolution: bool):
    """Interaction matrix on levels x 0..K: (entries, provenance, underresolved, delta).

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
    unchecked and no tail is flagged.  No decision depends on the weight's scale.
    """
    _node_moduli(field, wc.curve)  # refuses a t past the double range
    adaptive = N is None
    n = _start_nodes(levels, K) if adaptive else quadrature_size(N)
    circle = wc.curve.kind == "circle"
    sums = (_circle_sums if circle else _quadrature_sums)(field, levels, K, wc, n)
    entries = next(sums)
    tails = wc.sample_tails()
    provenance = {"curve": wc.curve.describe(), "weight": wc.describe(), "sign_class": wc.sign_class, "N": n}
    if circle:
        provenance["r"] = dict(wc.curve.meta)["r"]
    provenance.update(tails)
    rough = any(tail > RESOLUTION_DELTA_TOL for tail in tails.values())
    if not check_resolution:
        return entries, provenance, True if rough else None, None
    sizes, deltas = [], []
    while True:
        fine = next(sums)
        scale = np.max(np.abs(entries))
        sizes.append(n)
        deltas.append(float(np.max(np.abs(fine - entries))))
        if not adaptive or deltas[-1] <= ADAPTIVE_DELTA_RTOL * scale or n >= ADAPTIVE_NODE_CAP:
            break
        entries, n = fine, 2 * n
    provenance["N"] = n
    if adaptive:
        provenance["N_sequence"], provenance["delta_sequence"] = sizes, deltas
    return entries, provenance, bool(deltas[-1] > RESOLUTION_DELTA_TOL * scale) or rough, deltas[-1]


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
    flagged either way.
    """
    if q < 0:
        raise ValueError("level index must be >= 0")
    if K is None:
        K = default_truncation(field, q, weighted_curve.curve)
    if K < 0:
        raise ValueError("truncation K must be >= 0")
    entries, provenance, underresolved, delta = _compress(field, [q], K, weighted_curve, N, check_resolution)
    return ToeplitzMatrix(entries, q, K, field.b, provenance, underresolved, delta)


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
    """(entries, solver(entries)) for a nonempty finite matrix, Hermitian to 1e-12 * max|M| (a zero matrix is).

    The defect max|M - conj(M^T)| is read from a contiguous conj(M^T)
    overwritten by the difference: the same numbers as the plain
    expression, without its strided pass over a transposed view.
    """
    m = matrix.entries if isinstance(matrix, ToeplitzMatrix) else np.asarray(matrix)
    if m.size == 0:
        raise ValueError("empty matrix")
    scale = float(np.max(np.abs(m)))  # NaN or inf exactly when some entry is
    if not math.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    defect = np.conj(m.T, order="C")
    if float(np.max(np.abs(np.subtract(m, defect, out=defect)))) > 1e-12 * scale:
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
    census_m, r = None, matrix.provenance.get("r")
    underflow = scale == 0.0 and r is not None and not np.exp(
        _circle_amplitudes(MagneticField(matrix.b), [matrix.q], np.arange(matrix.K + 1), r)[0]
    ).any()
    if underflow:
        t = 0.5 * matrix.b * r * r
        note = f"entries underflow at t = b r^2 / 2 = {t:.6g}: every lambda_(k,q)(r), k <= K, is below the double range; {note}"
    if scale == 0.0 and not underflow:
        note = "degenerate input: matrix is identically zero (zero weight?)"
    elif r is not None:
        if matrix.q == 0:
            census_m = 0
            note += "; analytic value for circles at level 0: trivial kernel"
        else:
            census_m, _ = _census_multiplicity(MagneticField(matrix.b), matrix.q, r)
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
    return json.dumps(payload)


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
