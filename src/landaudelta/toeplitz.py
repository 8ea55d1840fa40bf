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
odd nodes, so the check costs N further basis samples, not 2N.  Kernel
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
from .basis import MagneticField, _parts_arrays, basis_matrix
from .curves import JordanCurve, WeightedCurve, arclength_rule, quadrature_size

__all__ = [
    "ToeplitzMatrix",
    "SpectrumResult",
    "KernelEstimate",
    "assemble",
    "circle_diagonal",
    "circle_diagonal_log",
    "default_truncation",
    "spectrum",
    "kernel_dim_estimate",
    "matrix_to_json",
    "matrix_from_json",
    "spectrum_to_csv",
]

RESOLUTION_DELTA_TOL = 1e-7
TAIL_RELATIVE_CUTOFF = 1e-16
CURVE_AMPLITUDE_CUTOFF = 1e-12
MAX_TRUNCATION = 512
# Angular indices per basis evaluation in the general-curve truncation sweep.
TRUNCATION_BLOCK = 32


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


def default_truncation(field: MagneticField, q: int, curve: JordanCurve, tail_rel: float = TAIL_RELATIVE_CUTOFF) -> int:
    """Smallest K beyond which entries of the level-q matrix on curve are negligible.

    Circles: sweep lambda_{k,q}(r) until the Poisson-type tail drops
    below tail_rel of the running maximum.  General curves ignore
    tail_rel and sweep curve.points, TRUNCATION_BLOCK angular indices per
    evaluation: stop once the amplitude of phi_{K,q} at every node falls
    below CURVE_AMPLITUDE_CUTOFF = 1e-12 of the largest amplitude seen.
    """
    if curve.kind != "circle":
        points = curve.points
        t_peak = 0.5 * field.b * float(np.max(np.sum(points * points, axis=1)))
        log_cut = math.log(CURVE_AMPLITUDE_CUTOFF)
        best = -math.inf
        for start in range(0, MAX_TRUNCATION, TRUNCATION_BLOCK):
            ks = np.arange(start, min(start + TRUNCATION_BLOCK, MAX_TRUNCATION))
            log_level = _parts_arrays(field, ks[:, None], q, points)[0].max(axis=1)
            running = np.maximum(np.maximum.accumulate(log_level), best)
            stop = (ks > q + t_peak) & (log_level < running + log_cut)
            if stop.any():
                return int(ks[np.argmax(stop)])
            best = float(running[-1])
        return MAX_TRUNCATION
    r = dict(curve.meta)["r"]
    t = 0.5 * field.b * r * r
    log_lam = _circle_amplitudes(field, [q], np.arange(MAX_TRUNCATION), r)[0].tolist()
    best = -math.inf
    below = 0
    log_cut = math.log(tail_rel)
    # At most q diagonals vanish at any radius, so q+1 consecutive
    # sub-threshold entries certify the tail (a lone resonant zero must
    # not truncate the sweep).
    for k, val in enumerate(log_lam):
        best = max(best, val)
        if k > q + t and val < best + log_cut:
            below += 1
            if below == q + 1:
                return k - (q + 1)
        else:
            below = 0
    return MAX_TRUNCATION


def _quadrature_kernel(field: MagneticField, levels, K: int, wc: WeightedCurve, n: int, refine: bool = False):
    """Interaction matrices on levels x 0..K over basis samples: (n-node, 2n-node or None).

    The uniform 2n rule holds the n rule at its even nodes, so the 2n sum
    is half the n sum plus half the n-node sum over the odd nodes (weights
    2 v ds of the 2n rule): refining costs n further basis samples.
    """

    def weighted_sum(points, w):
        phi = np.vstack([basis_matrix(field, j, range(K + 1), points) for j in levels])
        return (phi * w) @ phi.conj().T

    wcn = wc.resample(n)
    points, ds = arclength_rule(wcn.curve, n)
    m = weighted_sum(points, wcn.values * ds)
    coarse = 0.5 * (m + m.conj().T)
    if not refine:
        return coarse, None
    fine_wc = wc.resample(2 * n)
    fine_points, fine_ds = arclength_rule(fine_wc.curve, 2 * n)
    m_fine = 0.5 * (m + weighted_sum(fine_points[1::2], 2.0 * (fine_wc.values * fine_ds)[1::2]))
    return coarse, 0.5 * (m_fine + m_fine.conj().T)


def _circle_kernel(field: MagneticField, levels, K: int, wc: WeightedCurve, n: int, refine: bool = False):
    """The same trapezoid sums on an origin-centred circle: (n-node, 2n-node or None).

    M_kl = D_k S_k conj(D_l S_l) v_hat[(m_l - m_k) mod n] with harmonics
    m = k - j and v_hat = FFT(weight samples)/n; the amplitudes do not
    depend on n, so the 2n matrix costs one further FFT.  At most three
    dense complex arrays are alive per size.  Keep the product as written:
    numpy may evaluate it in place with the operands swapped, and
    hand-written in-place forms round differently at some sizes.
    """
    log_lam, phase, m = _circle_amplitudes(field, levels, np.arange(K + 1), dict(wc.curve.meta)["r"])
    d = np.exp(0.5 * log_lam) * phase
    scaled = d[:, None] * d.conj()[None, :]

    def at(size):
        vhat = np.fft.fft(wc.resample(size).values) / size
        mat = scaled * vhat[(m[None, :] - m[:, None]) % size]
        mat += mat.conj().T
        mat *= 0.5
        return mat

    return at(n), at(2 * n) if refine else None


def _compress(field: MagneticField, levels, K: int, wc: WeightedCurve, N: int | None, check_resolution: bool):
    """Interaction matrix on levels x 0..K: (entries, provenance, underresolved, delta).

    The one front door of assemble and galerkin.assemble_model, and the one
    home of their provenance (r included on circles).  N defaults to
    curves.DEFAULT_NODES; fewer than MIN_NODES nodes are rejected.  With
    check_resolution the matrix is also formed on 2N nodes, reusing the
    N-node sum (N further samples on general curves, one further FFT on
    circles): underresolved when an entry moves by more than RESOLUTION_DELTA_TOL.
    """
    n = quadrature_size(N)
    circle = wc.curve.kind == "circle"
    kernel = _circle_kernel if circle else _quadrature_kernel
    coarse, fine = kernel(field, levels, K, wc, n, check_resolution)
    provenance = {"curve": wc.curve.describe(), "weight": wc.describe(), "sign_class": wc.sign_class, "N": n}
    if circle:
        provenance["r"] = dict(wc.curve.meta)["r"]
    if fine is None:
        return coarse, provenance, None, None
    delta = float(np.max(np.abs(fine - coarse)))
    return coarse, provenance, delta > RESOLUTION_DELTA_TOL, delta


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
    over basis samples.  K defaults to default_truncation on the curve, N
    to DEFAULT_NODES = 1024 (at least 16); check_resolution flags the
    matrix underresolved when doubling N moves an entry by more than 1e-7.
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


def spectrum(matrix: ToeplitzMatrix | np.ndarray) -> SpectrumResult:
    """Hermitian eigendecomposition with per-pair residual checks."""
    m = matrix.entries if isinstance(matrix, ToeplitzMatrix) else np.asarray(matrix)
    if m.size == 0:
        raise ValueError("empty matrix")
    if not np.allclose(m, m.conj().T, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(m))))):
        raise ValueError("matrix is not Hermitian")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigensolve failed to converge: {exc}") from exc
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    residuals = np.linalg.norm(m @ vecs - vecs * vals[None, :], axis=0)
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    bad = residuals > 1e-10 * max(scale, 1e-300)
    if np.any(bad):
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


def kernel_dim_estimate(matrix: ToeplitzMatrix, rel_tol: float = 1e-10) -> KernelEstimate:
    """Count eigenvalues with |lambda| <= rel_tol * max|lambda|."""
    if not 0.0 < rel_tol <= 1e-3:
        raise ValueError(f"rel_tol must lie in (0, 1e-3], got {rel_tol}")
    vals = spectrum(matrix).eigenvalues
    scale = float(np.max(np.abs(vals)))
    threshold = rel_tol * max(scale, 1e-300)
    count = int(np.sum(np.abs(vals) <= threshold))
    note = (
        "truncation adds spuriously small tail entries; treat the count as an upper "
        "envelope of the kernel dimension"
    )
    census_m = None
    if scale == 0.0:
        note = "degenerate input: matrix is identically zero (zero weight?)"
    elif "r" in matrix.provenance:
        if matrix.q == 0:
            census_m = 0
            note += "; analytic value for circles at level 0: trivial kernel"
        else:
            field = MagneticField(matrix.b)
            census_m, _ = _census_multiplicity(field, matrix.q, matrix.provenance["r"])
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
    return json.dumps(payload, indent=1)


def matrix_from_json(text: str) -> ToeplitzMatrix:
    """Inverse of matrix_to_json; ValueError names a missing key, a non-object or bad field, or bad re/im."""
    payload = json.loads(text)
    try:
        meta, re, im = payload["meta"], payload["re"], payload["im"]
        q, K, b, provenance = int(meta["q"]), int(meta["K"]), float(meta["b"]), dict(meta["provenance"])
    except KeyError as exc:
        raise ValueError(f"matrix JSON has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"matrix JSON: payload, meta and provenance must be objects, q, K and b numbers ({exc})") from None
    try:
        re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"matrix JSON: re and im must be arrays of numbers ({exc})") from None
    if not re.shape == im.shape == (K + 1, K + 1):
        raise ValueError(f"matrix JSON: re {re.shape} and im {im.shape} must both be {(K + 1, K + 1)}")
    flags = meta.get("underresolved"), meta.get("refinement_delta")
    return ToeplitzMatrix(re + 1j * im, q, K, b, provenance, *flags)


def spectrum_to_csv(result: SpectrumResult) -> str:
    lines = ["index,eigenvalue,residual"]
    for i, (val, res) in enumerate(zip(result.eigenvalues, result.residuals)):
        lines.append(f"{i},{val:.17g},{res:.17g}")
    return "\n".join(lines) + "\n"
