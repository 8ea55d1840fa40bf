"""Cross-module invariant suite.

Every check recomputes a structural property against an independent
route (closed forms, refined quadrature, finite differences, or exact
symmetry) and returns a pass/fail record.  The CLI `verify` subcommand
runs the whole registry and fails the process on any violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from .basis import (
    BasisIndex,
    MagneticField,
    annihilation_residual,
    basis_eval,
    basis_matrix,
    gram_rule,
    plane_gram,
    stacked_parts,
)
from .census import (
    census as census_sweep,
    coupling_lower_bounds,
    eta_table_to_csv,
    explicit_D12,
    gap_constants,
    multiplicities,
)
from .curves import (
    SIGN_INDEFINITE,
    SIGN_NONNEGATIVE,
    SIGN_NONPOSITIVE,
    JordanCurve,
    arclength_rule,
    load_weight,
    make_circle,
    make_ellipse,
)
from .galerkin import assemble_model, cluster_report, persistence_check
from .laguerre import (
    LaguerreSpec,
    laguerre_derivative,
    laguerre_eval,
    magnitude_envelope,
    nodal_zeros,
    orthogonality_defect,
    positive_zeros,
)
from .toeplitz import RowLayout, assemble, circle_diagonal, eigenvalues, kernel_dim_estimate, spectrum

__all__ = ["CheckResult", "run_all", "CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float  # wall time of the check, timed by run_all


def check_laguerre_examples() -> tuple[bool, str]:
    checks = [
        abs(laguerre_eval(LaguerreSpec(0, 3.7), 11.0) - 1.0),
        abs(laguerre_eval(LaguerreSpec(1, 2.0), 3.0) - 0.0),
        abs(laguerre_eval(LaguerreSpec(2, 0.0), 2.0) - (-1.0)),
        abs(laguerre_derivative(LaguerreSpec(1, 0.0), 5.0) - (-1.0)),
        abs(laguerre_derivative(LaguerreSpec(2, 0.0), 0.0) - (-2.0)),
    ]
    worst = max(checks)
    return worst < 1e-14, f"max deviation {worst:.2e}"


def check_laguerre_interlacing() -> tuple[bool, str]:
    violations = 0
    for q in range(2, 9):
        for k in range(2, q + 1):
            upper = nodal_zeros(q, k)[::-1]
            lower = nodal_zeros(q, k - 1)[::-1]
            for m in range(len(lower)):
                if not (upper[m + 1] < lower[m] < upper[m]):
                    violations += 1
    return violations == 0, f"{violations} interlacing violations for q <= 8"


def check_laguerre_zero_monotonicity() -> tuple[bool, str]:
    grid = np.arange(-0.5, 20.0 + 0.25, 0.5)
    bad = 0
    for q in range(1, 9):
        table = positive_zeros(q, grid)
        if not np.all(np.diff(table, axis=0) > 0):
            bad += 1
    return bad == 0, f"{bad} levels with non-monotone zero curves"


def reflection_defect(q: int, k: int, t: np.ndarray) -> np.ndarray:
    """Deviation of the reflection identity, relative to the evaluation scale.

    Near the order-(q-k) null root no scheme reaches pointwise relative
    accuracy, so the deviation is normalized by the recurrence magnitude
    envelope (which dominates both sides away from zeros as well).
    """
    lhs = laguerre_eval(LaguerreSpec(q, float(k - q)), t)
    pref = math.exp(math.lgamma(k + 1) - math.lgamma(q + 1)) * (-t) ** (q - k)
    factor = laguerre_eval(LaguerreSpec(k, float(q - k)), t)
    rhs = pref * factor
    scale = np.maximum(
        magnitude_envelope(LaguerreSpec(q, float(k - q)), t),
        np.abs(pref) * (1.0 + np.abs(factor)),
    )
    return np.abs(lhs - rhs) / scale


def check_laguerre_reflection() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    worst = 0.0
    for q in range(2, 9):
        for k in range(1, q):
            t = rng.uniform(1e-3, 30.0, size=40)
            worst = max(worst, float(np.max(reflection_defect(q, k, t))))
    return worst < 1e-10, f"max scaled deviation {worst:.2e}"


def check_laguerre_orthogonality() -> tuple[bool, str]:
    q, p = np.triu_indices(13)  # every 0 <= q <= p <= 12
    worst = max(float(orthogonality_defect(q, p, alpha).max()) for alpha in (0.0, 0.5, 3.0))
    return worst < 1e-10, f"max defect {worst:.2e} over q,p <= 12"


def check_laguerre_zero_quality() -> tuple[bool, str]:
    worst = 0.0
    sign_bad = 0
    for q in range(1, 9):
        for alpha in (-0.5, 0.0, 1.5, 6.0):
            zeros = positive_zeros(q, alpha)
            spec = LaguerreSpec(q, alpha)
            resid = np.abs(laguerre_eval(spec, zeros))
            scale = np.abs(laguerre_derivative(spec, zeros)) * np.maximum(zeros, 1.0)
            worst = max(worst, float(np.max(resid / scale)))
            mids = 0.5 * (zeros[1:] + zeros[:-1])
            vals = laguerre_eval(spec, mids) if q > 1 else np.empty(0)
            signs = np.sign(np.atleast_1d(vals))
            if signs.size and np.any(signs[1:] == signs[:-1]):
                sign_bad += 1
    ok = worst < 1e-10 and sign_bad == 0
    return ok, f"max zero residual {worst:.2e}, {sign_bad} sign-alternation failures"


def basis_gram(field: MagneticField, q: int, kmax: int) -> np.ndarray:
    return plane_gram(field, stacked_parts(field, q, range(kmax + 1)), gram_rule(kmax + q, kmax))


def check_basis_gram() -> tuple[bool, str]:
    worst = 0.0
    for b in (0.5, 2.0):
        field = MagneticField(b)
        for q in range(0, 5):
            gram = basis_gram(field, q, 12)
            worst = max(worst, float(np.max(np.abs(gram - np.eye(13)))))
    (lo, angular), (hi, _) = gram_rule(12, 12), gram_rule(16, 12)
    return worst < 1e-8, f"max Gram deviation {worst:.2e} (K=12, q<=4, rule {lo}-{hi} x {angular})"


def closed_form_basis(field: MagneticField, ks: np.ndarray, q: int, pts: np.ndarray) -> np.ndarray:
    """phi_{k,q} at the points, phase included, from scipy's Laguerre polynomials; one row per k.

    i^-q sqrt(b/2pi) sqrt(lo!/hi!) w^(hi-lo) L_lo^(hi-lo)(t) e^(-t/2), t = b|x|^2/2,
    with w = sqrt(b/2) z for k >= q and w = -sqrt(b/2) conj(z) for k < q.
    """
    b = field.b
    z = pts[:, 0] + 1j * pts[:, 1]
    t = 0.5 * b * np.abs(z) ** 2
    ks = ks[:, None]
    lo, hi = np.minimum(ks, q), np.maximum(ks, q)
    scale = math.sqrt(b / (2.0 * math.pi)) * np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1)))
    w = np.where(ks >= q, math.sqrt(b / 2.0) * z, -math.sqrt(b / 2.0) * np.conj(z))
    return (-1j) ** q * scale * w ** (hi - lo) * eval_genlaguerre(lo, hi - lo, t) * np.exp(-0.5 * t)


def check_basis_phase() -> tuple[bool, str]:
    # Complex values, not moduli: pins the reflection sign and the i^-q phase.
    field = MagneticField(2.0)
    pts = np.random.default_rng(17).uniform(-2.0, 2.0, size=(6, 2))
    ks = np.arange(21)
    worst = 0.0
    for q in range(0, 7):
        got = basis_matrix(field, q, ks, pts)
        ref = closed_form_basis(field, ks, q, pts)
        scale = np.max(np.abs(ref), axis=1)
        worst = max(worst, float(np.max(np.max(np.abs(got - ref), axis=1) / scale)))
    return worst <= 1e-12, f"max deviation {worst:.2e} x row scale (q <= 6, k <= 20)"


def check_basis_nodal_radii() -> tuple[bool, str]:
    field = MagneticField(2.0)
    worst = 0.0
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    for q, k in ((1, 3), (2, 5), (3, 4), (2, 2)):
        zeros = nodal_zeros(q, k)
        rprobe = np.linspace(1e-3, 8.0, 400)
        scale = float(
            np.max(np.abs(basis_eval(field, BasisIndex(k, q), np.column_stack([rprobe, np.zeros_like(rprobe)]))))
        )
        for t in zeros:
            r = math.sqrt(2.0 * t / field.b)
            pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
            vals = np.abs(basis_eval(field, BasisIndex(k, q), pts))
            worst = max(worst, float(np.max(vals)) / scale)
    return worst < 1e-10, f"max |phi| on nodal circles {worst:.2e} x basis scale"


def check_basis_rotation() -> tuple[bool, str]:
    field = MagneticField(2.0)
    rng = np.random.default_rng(11)
    worst = 0.0
    for k, q in ((0, 0), (3, 1), (1, 3), (7, 2)):
        x = rng.uniform(-2.5, 2.5, size=(50, 2))
        radii = np.hypot(x[:, 0], x[:, 1])
        ang = rng.uniform(0.0, 2.0 * math.pi, size=50)
        rotated = np.column_stack([radii * np.cos(ang), radii * np.sin(ang)])
        v1 = np.abs(basis_eval(field, BasisIndex(k, q), x))
        v2 = np.abs(basis_eval(field, BasisIndex(k, q), rotated))
        scale = np.maximum(v1, 1e-300)
        worst = max(worst, float(np.max(np.abs(v1 - v2) / scale)))
    return worst < 1e-12, f"max rotation deviation {worst:.2e}"


def check_basis_annihilation() -> tuple[bool, str]:
    worst = 0.0
    for b in (1.0, 2.0, 4.0):
        field = MagneticField(b)
        for k in (0, 2, 4, 7, 10):
            for pt in ((0.3, -0.7), (1.0, 1.0), (2.0, -0.5)):
                worst = max(worst, annihilation_residual(field, BasisIndex(k, 0), np.array(pt)))
    return worst <= 1e-6, f"max annihilation residual {worst:.2e}"


# Magnetic translates are not band-limited, so no degree sizes their rule:
# at b = 2, y = (0.5, -1.2), q <= 4, K = 4, doubling both sizes of 32 x 64
# moves no Gram entry by more than 1e-13 (measured 7.7e-14).
TRANSLATED_GRAM_RULE = (32, 64)


def translated_gram(field: MagneticField, q: int, kmax: int, y) -> np.ndarray:
    return plane_gram(field, stacked_parts(field, q, range(kmax + 1), y), TRANSLATED_GRAM_RULE)


def check_basis_translation() -> tuple[bool, str]:
    field = MagneticField(2.0)
    y = np.array([0.5, -1.2])
    worst = 0.0
    for q in range(0, 5):
        gram = translated_gram(field, q, 4, y)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(5)))))
    radial, angular = TRANSLATED_GRAM_RULE
    return worst < 1e-8, f"max translated Gram deviation {worst:.2e} (rule {radial} x {angular})"


def check_curve_exactness() -> tuple[bool, str]:
    circle = make_circle(1.0, n=256)
    points, ds = arclength_rule(circle)
    theta = np.arctan2(points[:, 1], points[:, 0])
    worst = 0.0
    for m in (1, 2, 17, 100, 127):
        val = abs(np.sum(np.exp(1j * m * theta) * ds))
        worst = max(worst, val)
    length = abs(float(np.sum(ds)) - 2.0 * math.pi)
    return worst < 1e-12 and length < 1e-12, f"max harmonic integral {worst:.2e}, length defect {length:.2e}"


def check_curve_reparametrization() -> tuple[bool, str]:
    n = 2048
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    # Smooth reparametrization s(t) = t + 0.3 sin t of the ellipse (2, 1).
    s = t + 0.3 * np.sin(t)
    ds_dt = 1.0 + 0.3 * np.cos(t)
    pts = np.column_stack([2.0 * np.cos(s), np.sin(s)])
    der = np.column_stack([-2.0 * np.sin(s) * ds_dt, np.cos(s) * ds_dt])
    reparam = JordanCurve("sampled", t, pts, der, (("note", "reparam"),))
    f = lambda p: np.exp(np.sin(p[:, 0])) + p[:, 1] ** 2

    base = make_ellipse(2.0, 1.0, n=n)
    p1, w1 = arclength_rule(base)
    p2, w2 = arclength_rule(reparam)
    i1 = float(np.sum(f(p1) * w1))
    i2 = float(np.sum(f(p2) * w2))
    return abs(i1 - i2) < 1e-9, f"line integrals differ by {abs(i1 - i2):.2e}"


def closed_form_diagonal(field: MagneticField, q: int, k: int, r: float) -> float:
    """lambda_{k,q}(r) = b r (lo!/hi!) t^(hi-lo) L_lo^(hi-lo)(t)^2 e^-t, lo/hi = min/max(k, q).

    Built from scipy's Laguerre polynomials, apart from the basis evaluator.
    """
    t = 0.5 * field.b * r * r
    lo, hi = min(k, q), max(k, q)
    ratio = math.exp(math.lgamma(lo + 1) - math.lgamma(hi + 1))
    return field.b * r * ratio * t ** (hi - lo) * float(eval_genlaguerre(lo, hi - lo, t)) ** 2 * math.exp(-t)


def check_toeplitz_diagonality() -> tuple[bool, str]:
    worst_off = 0.0
    worst_rel = 0.0
    for b in (0.5, 2.0):
        field = MagneticField(b)
        for q in range(0, 5):
            for r in (0.8, 1.7):
                wc = load_weight(make_circle(r, n=512), 1.0)
                m = assemble(field, q, wc, K=12, N=512, check_resolution=False)
                diag = np.real(np.diag(m.entries)).copy()
                off = m.entries - np.diag(np.diag(m.entries))
                worst_off = max(worst_off, float(np.max(np.abs(off))) / float(np.max(diag)))
                oracle = np.array([closed_form_diagonal(field, q, k, r) for k in range(13)])
                scale = np.maximum(oracle, 1e-300)
                worst_rel = max(worst_rel, float(np.max(np.abs(diag - oracle) / scale)))
    ok = worst_off < 1e-11 and worst_rel < 1e-8
    return ok, f"off-diagonal {worst_off:.2e} x diag, oracle deviation {worst_rel:.2e}"


def check_toeplitz_circle_structure() -> tuple[bool, str]:
    # The scaled Toeplitz circle route against the quadrature over basis samples, which the
    # circle's own samples take when relabelled as a sampled curve (indefinite weight).
    field = MagneticField(2.0)
    weight = lambda t: 0.3 + np.cos(t) - 0.6 * np.sin(2 * t) + 0.4 * np.cos(3 * t)
    worst = 0.0
    for r in (1.0, 1.37):  # resonant for q = 1 (t = 1), generic
        c = make_circle(r, n=512)
        pair = [load_weight(curve, weight) for curve in (c, JordanCurve("sampled", c.params, c.points, c.derivs, ()))]
        if pair[0].sign_class != SIGN_INDEFINITE:
            return False, f"weight sign class {pair[0].sign_class}, expected indefinite"
        for levels in ([0], [1], [2], [3], [4], [0, 1, 2, 3]):
            if len(levels) == 1:
                fast, slow = (assemble(field, levels[0], wc, K=12, N=512, check_resolution=False).entries for wc in pair)
            else:
                fast, slow = (assemble_model(field, 3, 12, wc, +1, N=512, check_resolution=False).coupling for wc in pair)
            worst = max(worst, float(np.max(np.abs(fast - slow))) / float(np.max(np.abs(slow))))
    return worst <= 1e-12, f"circle kernel deviates from quadrature by {worst:.2e} x max|M| (q <= 4, Q = 3)"


def check_toeplitz_definiteness() -> tuple[bool, str]:
    field = MagneticField(2.0)
    wc_pos = load_weight(make_circle(1.3, n=512), lambda t: 1.5 + np.sin(t))
    wc_neg = load_weight(make_circle(1.3, n=512), lambda t: -1.5 - np.cos(t))
    if (wc_pos.sign_class, wc_neg.sign_class) != (SIGN_NONNEGATIVE, SIGN_NONPOSITIVE):
        return False, f"weight sign classes {wc_pos.sign_class}, {wc_neg.sign_class}, expected nonnegative, nonpositive"
    mp = assemble(field, 2, wc_pos, K=10, N=512, check_resolution=False)
    mn = assemble(field, 2, wc_neg, K=10, N=512, check_resolution=False)
    ep = eigenvalues(mp)
    en = eigenvalues(mn)
    lo = float(ep.min()) / float(np.max(np.abs(ep)))
    hi = float(en.max()) / float(np.max(np.abs(en)))
    ok = lo >= -1e-10 and hi <= 1e-10
    return ok, f"PSD floor {lo:.2e}, NSD ceiling {hi:.2e} (relative)"


def check_toeplitz_nodal_characterization() -> tuple[bool, str]:
    field = MagneticField(2.0)
    r = 1.0  # resonant for q = 1 (t = 1)
    wc = load_weight(make_circle(r, n=512), lambda t: 2.0 + np.sin(t))
    m = assemble(field, 1, wc, K=8, N=512, check_resolution=False)
    res = spectrum(m)
    scale = float(np.max(np.abs(res.eigenvalues)))
    small = np.abs(res.eigenvalues) <= 1e-12 * scale
    if not np.any(small):
        return False, "no numerically-zero eigenvalue found at a resonant radius"
    points, _ = arclength_rule(wc.curve)
    phi = basis_matrix(field, 1, range(9), points)
    basis_scale = float(np.max(np.abs(phi)))
    worst = 0.0
    for idx in np.nonzero(small)[0]:
        u = res.eigenvectors[:, idx] @ phi
        worst = max(worst, float(np.max(np.abs(u))) / basis_scale)
    return worst < 1e-8, f"kernel combination reaches {worst:.2e} x basis scale on the curve"


def _translated_assembly(field: MagneticField, layout: RowLayout, r: float, y, values, n: int) -> np.ndarray:
    """Interaction matrix on the rows of layout of the circle of radius r moved to y, over translated basis rows."""
    pts, ds = arclength_rule(make_circle(r, n=n))
    shifted = pts + np.asarray(y)[None, :]
    parts = [stacked_parts(field, j, range(K + 1), y)(shifted) for j, K in zip(layout.levels, layout.cuts)]
    phi = np.vstack([np.exp(la) * np.exp(1j * ph) for la, ph in parts])
    m = (phi * (values * ds)) @ phi.conj().T
    return 0.5 * (m + m.conj().T)


def check_toeplitz_recentering() -> tuple[bool, str]:
    field = MagneticField(2.0)
    q, K, r, n = 2, 9, 1.1, 512
    wc = load_weight(make_circle(r, n=n), lambda t: 1.0 + 0.5 * np.cos(t))
    m0 = assemble(field, q, wc, K=K, N=n, check_resolution=False)
    e0 = eigenvalues(m0)
    m1 = _translated_assembly(field, m0.layout, r, (0.7, -0.4), wc.values, n)
    e1 = eigenvalues(m1)
    worst = float(np.max(np.abs(e0 - e1)))
    return worst < 1e-8, f"translated spectrum deviates by {worst:.2e}"


def check_census_bound() -> tuple[bool, str]:
    rng = np.random.default_rng(23)
    bad = 0
    checked = 0
    for b in (0.5, 2.0):
        field = MagneticField(b)
        for q in range(1, 7):
            m = np.concatenate([[e.multiplicity for e in census_sweep(field, q, 4.0)],
                                multiplicities(field, q, rng.uniform(1e-3, 4.0, size=2000))])
            checked += m.size
            bad += int(np.count_nonzero(m > q))
    return bad == 0, f"{bad} violations of m <= q over {checked} radii"


def check_census_explicit() -> tuple[bool, str]:
    worst = 0.0
    for b in (0.5, 2.0):
        field = MagneticField(b)
        closed = explicit_D12(field, 40)
        for q, key in ((1, "D1"), (2, "D2")):
            r_max = 4.0
            swept = [e.r for e in census_sweep(field, q, r_max)]
            explicit = [r for r in closed[key] if r <= r_max * (1 + 1e-12)]
            if len(swept) != len(explicit):
                return False, f"cardinality mismatch for level {q} at b={b}"
            worst = max(worst, float(np.max(np.abs(np.array(swept) - np.array(explicit)) / np.array(explicit))))
    return worst < 1e-10, f"max relative deviation {worst:.2e}"


def check_census_matrix_agreement() -> tuple[bool, str]:
    field = MagneticField(2.0)
    worst_diag = 0.0
    bad = 0
    for q in range(1, 4):
        for e in census_sweep(field, q, 3.0):
            wc = load_weight(make_circle(e.r, n=512), 1.0)
            m = assemble(field, q, wc, N=512, check_resolution=False)
            if kernel_dim_estimate(m).count < e.multiplicity:
                bad += 1
            for k, _ in e.witnesses:
                worst_diag = max(worst_diag, circle_diagonal(field, q, k, e.r))
    ok = bad == 0 and worst_diag < 1e-12
    return ok, f"{bad} radii below census count, max witness diagonal {worst_diag:.2e}"


def check_census_eta_curves() -> tuple[bool, str]:
    """Each eta_ell strictly increases on its domain alpha >= ell - q, and eta_{ell+1} < eta_ell on both domains.

    One table per level over alpha = 1 - q, ..., 11.5 in steps of 0.5, read
    through eta_table_to_csv, the census --eta export (%.17g cells parse
    back exactly, nan below a curve's edge); curve ell is its column on the
    rows alpha >= ell - q.
    """
    field = MagneticField(2.0)
    bad = 0
    for q in (2, 3, 4):
        rows = eta_table_to_csv(field, q, np.arange(1.0 - q, 12.0, 0.5)).splitlines()[1:]
        table = np.array([[float(cell) for cell in row.split(",")] for row in rows])
        alphas, eta = table[:, 0], table[:, 1:]
        for ell in range(1, q + 1):
            if not np.all(np.diff(eta[alphas >= ell - q, ell - 1]) > 0):
                bad += 1
        for ell in range(1, q):
            both = alphas >= ell + 1 - q
            if not np.all(eta[both, ell] < eta[both, ell - 1]):
                bad += 1
    return bad == 0, f"{bad} eta-curve ordering/monotonicity failures"


def check_census_infinitude() -> tuple[bool, str]:
    field = MagneticField(2.0)
    n = len(census_sweep(field, 1, math.sqrt(20.0)))
    return n >= 20, f"census(q=1, r_max=sqrt(20)) has {n} entries"


def check_scalar_constants() -> tuple[bool, str]:
    field = MagneticField(1.0)
    plus, minus = gap_constants(field, 1, 0.0)
    c_plus, c_minus = coupling_lower_bounds(field, 1, 1.0)
    exact = (
        abs(plus - 2.0 / 3.0) < 1e-15
        and abs(minus - 2.0 / 15.0) < 1e-15
        and abs(c_plus - 0.25) < 1e-15
        and abs(c_minus - 2.0 / 26.0) < 1e-15
    )
    rows = [coupling_lower_bounds(field, q, 1.0) for q in range(1, 11)]
    gaps = [gap_constants(field, q, 0.7) for q in range(1, 11)]
    mono = all(a[0] > b2[0] and a[1] > b2[1] for a, b2 in zip(rows, rows[1:]))
    mono = mono and all(a[0] > b2[0] and a[1] > b2[1] for a, b2 in zip(gaps, gaps[1:]))
    return exact and mono, f"closed forms exact: {exact}, decreasing in q: {mono}"


def check_galerkin_blocks() -> tuple[bool, str]:
    field = MagneticField(2.0)
    wc = load_weight(make_circle(1.2, n=512), lambda t: 1.0 + 0.3 * np.sin(t))
    model = assemble_model(field, 2, 6, wc, +1, N=512, check_resolution=False)
    worst = 0.0
    for q in range(3):
        t = assemble(field, q, wc, K=6, N=512, check_resolution=False)
        block = model.layout.block(q)
        worst = max(worst, float(np.max(np.abs(model.coupling[block, block] - t.entries))))
    return worst < 1e-12, f"max block deviation {worst:.2e}"


def check_galerkin_weyl() -> tuple[bool, str]:
    field = MagneticField(2.0)
    wc = load_weight(make_circle(1.2, n=512), lambda t: 1.0 + 0.4 * np.cos(t))
    plus = assemble_model(field, 2, 8, wc, +1, N=512, check_resolution=False)
    minus = assemble_model(field, 2, 8, wc, -1, N=512, check_resolution=False)
    ep = np.sort(eigenvalues(plus.matrix))
    en = np.sort(eigenvalues(minus.matrix))
    bare = np.sort(plus.layout.spread(plus.levels()))
    ok = bool(np.all(ep >= bare - 1e-12) and np.all(en <= bare + 1e-12) and np.all(ep >= en - 1e-12))
    return ok, "Weyl ordering holds" if ok else "Weyl ordering violated"


def check_galerkin_persistence_sample() -> tuple[bool, str]:
    field = MagneticField(2.0)
    good = persistence_check(field, 1, 1.0, weight=lambda t: 5.0 + np.cos(t))
    off = persistence_check(field, 1, 1.3, weight=1.0)
    # b = 4, q = 6, witness k = 7, indefinite weight, K = 22: modes blind to the curve
    # crowd Lambda_6, so the witness's projection onto eigh's eigenspace misses by 1.4e-7.
    c = np.array([[0.03893440762218692, -0.0572471710254685, 0.431017315981155],
                  [-0.45948928881156537, 0.23200619565656078, 0.11437324694899664]])
    h = np.arange(1, 4)[:, None]
    weight = lambda t: -0.3772325178534954 + c[0] @ np.cos(h * t) + c[1] @ np.sin(h * t)
    deep = persistence_check(MagneticField(4.0), 6, 2.3700854867581373, K=22, weight=weight)
    ok = good.persists and deep.persists and not off.persists
    return ok, (f"resonant r=1: {good.persists}, b=4 q=6 indefinite: {deep.persists} (witness residual "
                f"{max(deep.details['sign_+']['support_residuals']):.1e}), non-resonant r=1.3: {off.persists}")


def check_galerkin_recentering() -> tuple[bool, str]:
    field = MagneticField(2.0)
    q, Q, K, r, n = 1, 2, 8, 1.0, 512
    wc = load_weight(make_circle(r, n=n), lambda t: 1.0 + 0.5 * np.sin(t))
    base = assemble_model(field, Q, K, wc, +1, N=n, check_resolution=False)
    e0 = eigenvalues(base.matrix)

    b = _translated_assembly(field, base.layout, r, (0.6, 0.35), wc.values, n)
    lam = base.layout.spread(base.levels())
    e1 = eigenvalues(np.diag(lam).astype(complex) + b)
    worst = float(np.max(np.abs(e0 - e1)))
    return worst < 1e-8, f"recentered spectrum deviates by {worst:.2e}"


def check_cluster_report_unperturbed() -> tuple[bool, str]:
    field = MagneticField(2.0)
    wc = load_weight(make_circle(1.0, n=256), 0.0)
    model = assemble_model(field, 2, 5, wc, +1, N=256, check_resolution=False)
    report = cluster_report(model)
    worst = max(c.max_offset for c in report.clusters)
    counts = [c.count for c in report.clusters]
    ok = worst == 0.0 and counts == [6, 6, 6]
    return ok, f"offsets {worst:.2e}, cluster sizes {counts}"


CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("laguerre-examples", check_laguerre_examples),
    ("laguerre-interlacing", check_laguerre_interlacing),
    ("laguerre-zero-monotonicity", check_laguerre_zero_monotonicity),
    ("laguerre-reflection", check_laguerre_reflection),
    ("laguerre-orthogonality", check_laguerre_orthogonality),
    ("laguerre-zero-quality", check_laguerre_zero_quality),
    ("basis-gram", check_basis_gram),
    ("basis-phase", check_basis_phase),
    ("basis-nodal-radii", check_basis_nodal_radii),
    ("basis-rotation", check_basis_rotation),
    ("basis-annihilation", check_basis_annihilation),
    ("basis-translation", check_basis_translation),
    ("curve-exactness", check_curve_exactness),
    ("curve-reparametrization", check_curve_reparametrization),
    ("toeplitz-diagonality", check_toeplitz_diagonality),
    ("toeplitz-circle-structure", check_toeplitz_circle_structure),
    ("toeplitz-definiteness", check_toeplitz_definiteness),
    ("toeplitz-nodal-characterization", check_toeplitz_nodal_characterization),
    ("toeplitz-recentering", check_toeplitz_recentering),
    ("census-bound", check_census_bound),
    ("census-explicit", check_census_explicit),
    ("census-matrix-agreement", check_census_matrix_agreement),
    ("census-eta-curves", check_census_eta_curves),
    ("census-infinitude", check_census_infinitude),
    ("scalar-constants", check_scalar_constants),
    ("galerkin-blocks", check_galerkin_blocks),
    ("galerkin-weyl", check_galerkin_weyl),
    ("galerkin-persistence", check_galerkin_persistence_sample),
    ("galerkin-recentering", check_galerkin_recentering),
    ("cluster-report-unperturbed", check_cluster_report_unperturbed),
]


def run_all() -> list[CheckResult]:
    """Run every check in CHECKS order, each timed; a check that raises fails with the exception as its detail."""
    results = []
    for name, fn in CHECKS:
        start = perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # surface failures, never mask them
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), detail, perf_counter() - start))
    return results
