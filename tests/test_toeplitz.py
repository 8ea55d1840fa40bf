import math

import numpy as np
import pytest

import landaudelta.toeplitz as toeplitz
from landaudelta.basis import BasisIndex, MagneticField, basis_eval, basis_matrix, translated_parts
from landaudelta.census import census
from landaudelta.curves import JordanCurve, arclength_rule, load_weight, make_circle, make_ellipse, save_weight
from landaudelta.galerkin import assemble_model
from landaudelta.laguerre import LaguerreSpec, laguerre_eval, positive_zeros
from landaudelta.toeplitz import (
    CURVE_AMPLITUDE_CUTOFF,
    MAX_TRUNCATION,
    RESOLUTION_DELTA_TOL,
    ToeplitzMatrix,
    _circle_kernel,
    _quadrature_kernel,
    assemble,
    circle_diagonal,
    circle_diagonal_log,
    default_truncation,
    kernel_dim_estimate,
    matrix_from_json,
    matrix_to_json,
    spectrum,
    spectrum_to_csv,
)
from landaudelta.verify import closed_form_diagonal

F2 = MagneticField(2.0)


def direct_circle_diagonal(field, q, k, r):
    """2 pi r |phi_{k,q}(r)|^2 from a basis sample."""
    val = abs(basis_eval(field, BasisIndex(k, q), (r, 0.0))) ** 2
    return 2 * math.pi * r * val


class TestCircleDiagonal:
    def test_lowest_level_frozen(self):
        assert circle_diagonal(F2, 0, 0, 1.0) == pytest.approx(2 * math.exp(-1), rel=1e-15)

    def test_resonant_zero(self):
        assert circle_diagonal(F2, 1, 1, 1.0) == 0.0
        assert circle_diagonal_log(F2, 1, 1, 1.0) == -math.inf

    def test_matches_pointwise_oracle(self):
        for b in (0.5, 2.0):
            field = MagneticField(b)
            for q in range(4):
                for k in (0, 1, 3, 7):
                    for r in (0.7, 1.3, 2.4):
                        assert circle_diagonal(field, q, k, r) == pytest.approx(
                            direct_circle_diagonal(field, q, k, r), rel=1e-12, abs=1e-300
                        )

    def test_matches_scipy_closed_form(self):
        # The closed form b r (lo!/hi!) t^(hi-lo) L_lo^(hi-lo)(t)^2 e^-t through
        # scipy, apart from the basis evaluator that circle_diagonal reads.
        for b in (0.5, 2.0):
            field = MagneticField(b)
            for q in range(7):
                for k in range(41):
                    for r in (0.7, 0.8, 1.3, 1.7, 2.4):
                        assert circle_diagonal(field, q, k, r) == pytest.approx(
                            closed_form_diagonal(field, q, k, r), rel=1e-12, abs=1e-300
                        )

    def test_lowest_level_strictly_positive(self):
        for k in (0, 5, 50, 200):
            for r in (0.1, 1.0, 5.0):
                assert circle_diagonal_log(F2, 0, k, r) > -math.inf

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            circle_diagonal(F2, 0, 0, 0.0)


class TestAssemble:
    def test_circle_diagonality_and_oracle(self):
        wc = load_weight(make_circle(1.0, n=512), 1.0)
        m = assemble(F2, 0, wc, K=4, N=512)
        diag = np.real(np.diag(m.entries))
        oracle = np.array([circle_diagonal(F2, 0, k, 1.0) for k in range(5)])
        assert np.max(np.abs(diag - oracle)) < 1e-10
        off = m.entries - np.diag(np.diag(m.entries))
        assert np.max(np.abs(off)) < 1e-12
        assert m.underresolved is False

    def test_zero_weight_gives_zero_matrix(self):
        wc = load_weight(make_circle(1.0, n=256), 0.0)
        m = assemble(F2, 1, wc, K=5, N=256, check_resolution=False)
        assert np.all(m.entries == 0)

    def test_linearity_exact_for_power_of_two(self):
        curve = make_circle(1.2, n=256)
        w1 = load_weight(curve, lambda t: 1.0 + 0.5 * np.sin(t))
        w2 = load_weight(curve, lambda t: 2.0 * (1.0 + 0.5 * np.sin(t)))
        m1 = assemble(F2, 1, w1, K=5, N=256, check_resolution=False)
        m2 = assemble(F2, 1, w2, K=5, N=256, check_resolution=False)
        assert np.array_equal(m2.entries, 2.0 * m1.entries)

    def test_linearity_general_scale(self):
        curve = make_circle(1.2, n=256)
        c = 1.7
        w1 = load_weight(curve, lambda t: 1.0 + 0.5 * np.sin(t))
        w2 = load_weight(curve, lambda t: c * (1.0 + 0.5 * np.sin(t)))
        m1 = assemble(F2, 1, w1, K=5, N=256, check_resolution=False)
        m2 = assemble(F2, 1, w2, K=5, N=256, check_resolution=False)
        scale = np.max(np.abs(m1.entries))
        assert np.allclose(m2.entries, c * m1.entries, rtol=1e-14, atol=1e-15 * scale)

    def test_hermitian_exactly(self):
        wc = load_weight(make_ellipse(1.5, 0.8, n=512), lambda t: 1.0 + 0.3 * np.cos(2 * t))
        m = assemble(F2, 1, wc, K=8, N=512, check_resolution=False)
        assert np.array_equal(m.entries, m.entries.conj().T)

    def test_psd_for_nonnegative_weight(self):
        wc = load_weight(make_ellipse(1.5, 0.8, n=512), lambda t: 1.0 + np.sin(t))
        m = assemble(F2, 2, wc, K=8, N=512, check_resolution=False)
        vals = spectrum(m).eigenvalues
        assert vals.min() >= -1e-10 * np.abs(vals).max()

    def test_nsd_for_nonpositive_weight(self):
        wc = load_weight(make_ellipse(1.5, 0.8, n=512), lambda t: -1.0 - np.sin(t))
        m = assemble(F2, 2, wc, K=8, N=512, check_resolution=False)
        vals = spectrum(m).eigenvalues
        assert vals.max() <= 1e-10 * np.abs(vals).max()

    def test_resolution_flag_on_rough_weight(self):
        # cos(16 t) aliases to a spurious constant on a 16-node grid, so
        # doubling the nodes moves the entries by O(1).
        curve = make_circle(1.0, n=16)
        wc = load_weight(curve, lambda t: 1.0 + np.cos(16.0 * t))
        m = assemble(F2, 0, wc, K=3, N=16)
        assert m.underresolved is True
        assert m.refinement_delta > 1e-2

    @pytest.mark.parametrize("curve", [make_circle(1.0), make_ellipse(1.0, 0.7)])
    @pytest.mark.parametrize("N", [0, 1, 8, 15])
    def test_node_minimum_on_every_curve(self, curve, N):
        wc = load_weight(curve, 1.0)
        for check in (True, False):
            with pytest.raises(ValueError, match="at least 16 nodes"):
                assemble(F2, 1, wc, K=3, N=N, check_resolution=check)
        with pytest.raises(ValueError, match="at least 16 nodes"):
            make_circle(1.0, n=N)
        with pytest.raises(ValueError, match="at least 16 nodes"):
            make_ellipse(1.0, 0.7, n=N)

    def test_recentering_invariance(self):
        q, K, r, n = 1, 8, 1.1, 512
        wc = load_weight(make_circle(r, n=n), lambda t: 1.0 + 0.5 * np.cos(t))
        e0 = spectrum(assemble(F2, q, wc, K=K, N=n, check_resolution=False)).eigenvalues
        pts, ds = arclength_rule(wc.curve, n)
        y = np.array([0.7, -0.4])
        shifted = pts + y[None, :]
        rows = []
        for k in range(K + 1):
            la, ph = translated_parts(F2, BasisIndex(k, q), y)(shifted)
            rows.append(np.exp(la) * np.exp(1j * ph))
        phi = np.array(rows)
        m = (phi * (wc.values * ds)) @ phi.conj().T
        e1 = spectrum(0.5 * (m + m.conj().T)).eigenvalues
        assert np.max(np.abs(e0 - e1)) < 1e-8


class TestTruncation:
    def test_circle_rule_passes_resonant_dips(self):
        # The resonant zero at k = 1 (t = 1) must not stop the sweep.
        K = default_truncation(F2, 1, make_circle(1.0))
        assert K > 10
        tail = circle_diagonal(F2, K + 1, 1, 1.0)
        peak = max(circle_diagonal(F2, k, 1, 1.0) for k in range(K + 1))
        assert tail < 1e-12 * peak

    def test_circle_rule_matches_scalar_sweep(self):
        # Reference: the per-k sweep over the scalar closed form.
        def scalar_log_diagonal(field, q, k, r):
            t = 0.5 * field.b * r * r
            lo, hi = (q, k) if k >= q else (k, q)
            poly = laguerre_eval(LaguerreSpec(lo, float(hi - lo)), t)
            if poly == 0.0:
                return -math.inf
            out = math.log(field.b * r) + math.lgamma(lo + 1) - math.lgamma(hi + 1) + 2.0 * math.log(abs(poly)) - t
            return out + (hi - lo) * math.log(t) if hi > lo else out

        def scalar_sweep(field, q, r, tail_rel):
            t = 0.5 * field.b * r * r
            best, below = -math.inf, 0
            for k in range(MAX_TRUNCATION):
                val = scalar_log_diagonal(field, q, k, r)
                best = max(best, val)
                if k > q + t and val < best + math.log(tail_rel):
                    below += 1
                    if below == q + 1:
                        return k - (q + 1)
                else:
                    below = 0
            return MAX_TRUNCATION

        for r in np.linspace(0.3, 3.0, 50).tolist():
            circle = make_circle(r)
            for b in (0.5, 1.0, 2.0, 4.0):
                field = MagneticField(b)
                for q in range(7):
                    for tail_rel in (1e-16, 1e-4):
                        assert default_truncation(field, q, circle, tail_rel) == scalar_sweep(field, q, r, tail_rel)

    def test_curve_rule_matches_scalar_sweep(self):
        # Reference: the per-k sweep over single basis rows.  The curve rule
        # reads CURVE_AMPLITUDE_CUTOFF, so both tail cutoffs give the same K.
        def scalar_sweep(field, q, curve):
            points, _ = arclength_rule(curve, curve.n_nodes)
            t_peak = 0.5 * field.b * float(np.max(np.sum(points * points, axis=1)))
            best = -math.inf
            for k in range(MAX_TRUNCATION):
                level = float(np.max(np.abs(basis_eval(field, BasisIndex(k, q), points))))
                log_level = math.log(level) if level > 0 else -math.inf
                best = max(best, log_level)
                if k > q + t_peak and log_level < best + math.log(CURVE_AMPLITUDE_CUTOFF):
                    return k
            return MAX_TRUNCATION

        for b in (0.5, 1.0, 2.0, 4.0):
            field = MagneticField(b)
            for a in (1.0, 1.4, 2.0):
                for ratio in (0.5, 0.7, 0.9):
                    curve = make_ellipse(a, ratio * a, n=256)
                    for q in range(6):
                        expected = scalar_sweep(field, q, curve)
                        for tail_rel in (1e-16, 1e-4):
                            assert default_truncation(field, q, curve, tail_rel) == expected

    def test_curve_rule_bounded(self):
        curve = make_ellipse(1.5, 1.0, n=256)
        K = default_truncation(F2, 1, curve)
        assert 0 < K < 200

    @pytest.mark.parametrize(
        "b, ellipse_ks, sampled_ks",
        [(0.5, [20, 24, 28], [23, 27, 32]), (2.0, [30, 35, 40], [36, 41, 47]), (4.0, [39, 44, 50], [48, 53, 60])],
    )
    def test_curve_rule_pinned_on_ellipses(self, b, ellipse_ks, sampled_ks):
        # Values of the sweep over arclength_rule(curve, curve.n_nodes), which
        # the sweep over curve.points replaced: a curve resampled to its own
        # node count is itself.
        field = MagneticField(b)
        e = make_ellipse(1.8, 1.1, n=200)
        sampled = JordanCurve("sampled", e.params, e.points, e.derivs, ())
        for curve, expected in ((make_ellipse(1.4, 0.9), ellipse_ks), (sampled, sampled_ks)):
            assert [default_truncation(field, q, curve) for q in (0, 2, 5)] == expected
            assert arclength_rule(curve, curve.n_nodes)[0] is curve.points


def three_harmonic(t):
    return 0.3 + np.cos(t) - 0.6 * np.sin(2 * t) + 0.4 * np.cos(3 * t)


def sample_weights(tmp_path):
    """Constant, indefinite three-harmonic and tabulated (file) weights."""
    path = tmp_path / "weight.txt"
    grid = np.linspace(0.0, 2 * math.pi, 97, endpoint=False)
    save_weight(grid, 1.5 + np.sin(grid) * np.cos(3 * grid), path)
    return (1.0, three_harmonic, str(path))


def sample_radii(field, q):
    """One generic radius and, for q >= 1, the census radius of witness k = q + 1."""
    radii = [1.37]
    if q >= 1:
        radii.append(math.sqrt(2.0 * positive_zeros(q, 1.0)[0] / field.b))
    return radii


class TestCircleKernel:
    """The scaled Toeplitz circle path against the quadrature over basis samples."""

    @pytest.mark.parametrize("b", [0.5, 2.0, 4.0])
    def test_single_level_matches_quadrature(self, b, tmp_path):
        field = MagneticField(b)
        for weight in sample_weights(tmp_path):
            for q in range(7):
                for r in sample_radii(field, q):
                    wc = load_weight(make_circle(r, n=256), weight)
                    K = default_truncation(field, q, wc.curve)
                    fast = _circle_kernel(field, [q], K, wc, 256)[0]
                    slow = _quadrature_kernel(field, [q], K, wc, 256)[0]
                    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))
                    assert np.array_equal(fast, fast.conj().T)

    def test_refinement_delta_matches_quadrature(self, tmp_path):
        for weight in sample_weights(tmp_path) + (lambda t: 1.0 + np.cos(16.0 * t),):
            for q in (0, 2, 5):
                wc = load_weight(make_circle(1.1, n=16), weight)
                m = assemble(F2, q, wc, K=12, N=16)
                coarse, fine = _quadrature_kernel(F2, [q], 12, wc, 16, refine=True)
                assert abs(m.refinement_delta - np.max(np.abs(fine - coarse))) <= 1e-12

    def test_entries_bitwise_as_out_of_place_symmetrization(self):
        # The kernel symmetrizes in place and keeps no shift table; its
        # entries must be those of the plain expression form below bit for
        # bit.  numpy may evaluate a product of temporaries in place with
        # the operands swapped, which rounds differently, and only above a
        # size threshold: several sizes (31, 84, 315 among them) and a zero
        # weight are covered.
        def reference(field, levels, K, wc, size):
            log_lam, phase, m = toeplitz._circle_amplitudes(field, levels, np.arange(K + 1), dict(wc.curve.meta)["r"])
            d = np.exp(0.5 * log_lam) * phase
            scaled = d[:, None] * d.conj()[None, :]
            shift = m[None, :] - m[:, None]
            vhat = np.fft.fft(wc.resample(size).values) / size
            mat = scaled * vhat[shift % size]
            return 0.5 * (mat + mat.conj().T)

        weights = (1.0, 0.0, -0.7, three_harmonic)
        for b, r in ((0.5, 0.7), (2.0, 1.0), (4.0, 2.37)):
            field = MagneticField(b)
            for levels, K in (([0], 30), ([3], 83), ([1], 9), ([0, 1, 2], 104), ([0, 1], 41), (range(9), 44)):
                for weight in weights:
                    wc = load_weight(make_circle(r, n=128), weight)
                    coarse, fine = _circle_kernel(field, levels, K, wc, 128, refine=True)
                    assert coarse.tobytes() == reference(field, levels, K, wc, 128).tobytes()
                    assert fine.tobytes() == reference(field, levels, K, wc, 256).tobytes()

    def test_witness_rows_vanish_at_census_radii(self):
        # The rows vanish up to the rounding of t = b r^2 / 2 at the census
        # radius, which perturbs the zero by an ulp: the largest measured is
        # 2.2e-15 x max|M| (1.6e-15 by quadrature), at q = 6, t = 0.53.
        for b in (0.5, 2.0, 4.0):
            field = MagneticField(b)
            for q in range(1, 7):
                for entry in census(field, q, 3.0):
                    wc = load_weight(make_circle(entry.r), three_harmonic)
                    m = assemble(field, q, wc, check_resolution=False).entries
                    for k, _ in entry.witnesses:
                        assert np.max(np.abs(m[k])) <= 1e-14 * np.max(np.abs(m))


def direct_quadrature(field, levels, K, wc, n):
    """The trapezoid sum over basis samples at all n nodes of wc.resample(n)."""
    wcn = wc.resample(n)
    points, ds = arclength_rule(wcn.curve, n)
    phi = np.vstack([basis_matrix(field, j, range(K + 1), points) for j in levels])
    m = (phi * (wcn.values * ds)) @ phi.conj().T
    return 0.5 * (m + m.conj().T)


def sampled_ellipse(a, c, nodes):
    """An ellipse known only through its samples (resampled linearly)."""
    ell = make_ellipse(a, c, n=nodes)
    return JordanCurve("sampled", ell.params, ell.points, ell.derivs, ())


class TestNestedResolution:
    """The 2N matrix as half the N-rule sum plus half the odd-node sum."""

    def test_matches_direct_quadrature(self, tmp_path):
        # Reference: the direct 2N quadrature, every basis row evaluated at all 2N nodes.
        K = 12
        flags = set()
        for curve in (make_ellipse(1.4, 0.9), sampled_ellipse(1.4, 0.9, 97)):
            for weight in (three_harmonic, sample_weights(tmp_path)[2]):
                wc = load_weight(curve, weight)
                for n in (32, 64, 128):
                    single = [assemble(F2, q, wc, K=K, N=n) for q in (0, 2, 5)]
                    model = assemble_model(F2, 3, K, wc, +1, N=n)
                    runs = [([m.q], m.entries, m.refinement_delta, m.underresolved) for m in single]
                    runs.append((range(4), model.coupling, model.refinement_delta, model.underresolved))
                    for levels, entries, got_delta, flag in runs:
                        coarse = direct_quadrature(F2, levels, K, wc, n)
                        fine = direct_quadrature(F2, levels, K, wc, 2 * n)
                        scale = np.max(np.abs(fine))
                        assert entries.tobytes() == coarse.tobytes()
                        nested = _quadrature_kernel(F2, levels, K, wc, n, refine=True)[1]
                        assert np.max(np.abs(nested - fine)) <= 1e-14 * scale
                        delta = float(np.max(np.abs(fine - coarse)))
                        assert abs(got_delta - delta) <= 1e-15 * scale
                        assert flag == (delta > RESOLUTION_DELTA_TOL)
                        flags.add(flag)
        assert flags == {True, False}

    def test_check_costs_n_further_samples(self, monkeypatch):
        # A checked assembly evaluates 2N points per level, an unchecked one N.
        points = []

        def counting(field, q, ks, pts):
            points.append((q, len(pts)))
            return basis_matrix(field, q, ks, pts)

        monkeypatch.setattr(toeplitz, "basis_matrix", counting)
        wc = load_weight(make_ellipse(1.4, 0.9), three_harmonic)
        n = 64
        for check in (True, False):
            per_level = 2 * n if check else n
            points.clear()
            m = assemble(F2, 2, wc, K=8, N=n, check_resolution=check)
            assert {q for q, _ in points} == {2}
            assert sum(p for _, p in points) == per_level
            assert (m.refinement_delta is not None) == check
            points.clear()
            model = assemble_model(F2, 3, 8, wc, -1, N=n, check_resolution=check)
            assert {q for q, _ in points} == {0, 1, 2, 3}
            assert all(sum(p for q, p in points if q == j) == per_level for j in range(4))
            assert (model.refinement_delta is not None) == check


class TestSpectrum:
    def test_diagonal_matrix(self):
        m = ToeplitzMatrix(np.diag([3.0, 1.0, 2.0]).astype(complex), 0, 2, 1.0, {})
        res = spectrum(m)
        assert np.allclose(res.eigenvalues, [3.0, 2.0, 1.0])

    def test_symmetric_two_by_two(self):
        res = spectrum(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        assert np.allclose(res.eigenvalues, [1.0, -1.0])

    def test_resonant_circle_has_zero_eigenvalue(self):
        wc = load_weight(make_circle(1.0, n=512), 1.0)
        m = assemble(F2, 1, wc, K=8, N=512, check_resolution=False)
        vals = spectrum(m).eigenvalues
        assert np.min(np.abs(vals)) < 1e-12

    def test_residuals_small(self):
        wc = load_weight(make_ellipse(1.3, 0.9, n=512), lambda t: 1.0 + 0.2 * np.sin(3 * t))
        m = assemble(F2, 2, wc, K=10, N=512, check_resolution=False)
        res = spectrum(m)
        assert np.all(res.residuals <= 1e-10 * np.abs(res.eigenvalues).max())

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            spectrum(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestKernelEstimate:
    def test_resonant_radius_count(self):
        wc = load_weight(make_circle(1.0, n=512), 1.0)
        m = assemble(F2, 1, wc, K=6, N=512, check_resolution=False)
        est = kernel_dim_estimate(m)
        assert est.count == 1
        assert est.census_multiplicity == 1

    def test_nonresonant_radius_count_zero(self):
        wc = load_weight(make_circle(math.sqrt(0.5), n=512), 1.0)
        m = assemble(F2, 1, wc, K=6, N=512, check_resolution=False)
        est = kernel_dim_estimate(m)
        assert est.count == 0
        assert est.census_multiplicity == 0

    def test_zero_weight_flagged(self):
        wc = load_weight(make_circle(1.0, n=256), 0.0)
        m = assemble(F2, 1, wc, K=6, N=256, check_resolution=False)
        est = kernel_dim_estimate(m)
        assert est.count == 7
        assert "degenerate" in est.note

    def test_tolerance_domain(self):
        wc = load_weight(make_circle(1.0, n=256), 1.0)
        m = assemble(F2, 1, wc, K=6, N=256, check_resolution=False)
        with pytest.raises(ValueError):
            kernel_dim_estimate(m, rel_tol=0.1)


class TestSerialization:
    def test_json_roundtrip_bit_identical_spectrum(self):
        wc = load_weight(make_circle(1.0, n=256), lambda t: 1.0 + 0.25 * np.sin(t))
        m = assemble(F2, 1, wc, K=6, N=256, check_resolution=False)
        text = matrix_to_json(m)
        back = matrix_from_json(text)
        assert np.array_equal(back.entries, m.entries)
        assert spectrum_to_csv(spectrum(back)) == spectrum_to_csv(spectrum(m))

    def test_csv_header(self):
        res = spectrum(np.eye(2, dtype=complex))
        assert spectrum_to_csv(res).splitlines()[0] == "index,eigenvalue,residual"
