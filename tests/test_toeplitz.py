import collections
import json
import math
import os
import re
import subprocess
import sys
import warnings
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import landaudelta.basis as basis
import landaudelta.toeplitz as toeplitz
from landaudelta.basis import BasisIndex, MagneticField, basis_eval, basis_matrix, translated_parts
from landaudelta.census import census
from landaudelta.curves import JordanCurve, arclength_rule, load_weight, make_circle, make_ellipse, save_weight
from landaudelta.galerkin import assemble_model, model_truncation, persistence_check
from landaudelta.laguerre import LaguerreSpec, laguerre_eval, laguerre_eval_batch, positive_zeros
from landaudelta.toeplitz import (
    BLOCK_CELLS,
    MAX_TRUNCATION,
    RESOLUTION_DELTA_TOL,
    RowLayout,
    ToeplitzMatrix,
    _circle_sums,
    _quadrature_sums,
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

    def test_non_finite_weight_at_the_doubled_n_raises(self):
        # Finite on the 64 nodes it is loaded on; NaN at the check's 128.
        def finite_on_64(t):
            return np.full(t.size, 1.0 if t.size == 64 else np.nan)

        for curve in (make_circle(1.0, n=64), make_ellipse(1.4, 0.9, n=64)):
            wc = load_weight(curve, finite_on_64)
            assert assemble(F2, 1, wc, K=6, N=64, check_resolution=False).K == 6
            with pytest.raises(ValueError, match="weight values must be finite"):
                assemble(F2, 1, wc, K=6, N=64)

    def test_overflowing_t_raises_at_the_door_without_warnings(self):
        # b r^2 past the double range used to leak a numpy overflow warning and
        # fail later on "non-finite entries"; now it is refused before any basis value.
        field = MagneticField(1e300)
        message = r"t = b r\^2 / 2 is past the double range at b = 1e\+300, r = 1e\+10"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for curve in (make_circle(1e10), make_ellipse(1e10, 1e10)):
                for K in (3, None):  # None: refused by default_truncation, with the same message
                    with pytest.raises(ValueError, match=message):
                        assemble(field, 1, load_weight(curve, 1.0), K=K)
            with pytest.raises(ValueError, match=message):
                assemble_model(field, 1, 2, load_weight(make_circle(1e10), 1.0), 1)
        assert assemble(MagneticField(1e300), 0, load_weight(make_circle(1.0), 1.0), K=3).K == 3

    def test_overflowing_laguerre_factor_raises_by_name_without_warnings(self):
        # q = 200 at t = 3000: L_200^(k-200)(t) is past the double range.  It used to
        # double N to 8192 and return 18 non-finite diagonal entries, unflagged; the
        # default K said "no certified tail ... pass K", which could not help.
        message = r"Laguerre factor of phi_\(k,q\) is not finite at q = 200, t = 3000: past the double range"
        wc = load_weight(make_circle(math.sqrt(3000.0)), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for K in (210, None):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    assemble(F2, 200, wc, K=K)
            with pytest.raises(ValueError, match=f"^{message}$"):
                circle_diagonal_log(F2, 200, 210, math.sqrt(3000.0))

    def test_overflowing_laguerre_factor_on_a_general_curve(self):
        # The quadrature's row blocks refuse as a level at a time would: the first
        # level past the double range is named.  Model blocks of 512 rows at N = 16
        # span levels 192 and 193 here, and both overflow.
        wc = load_weight(make_ellipse(55.0, 50.0), 1.0)
        message = r"Laguerre factor of phi_\(k,q\) is not finite at q = {}, t = 3025: past the double range"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message.format(200)}$"):
                assemble(F2, 200, wc, K=210, N=256)
            with pytest.raises(ValueError, match=f"^{message.format(192)}$"):
                assemble_model(F2, 203, 210, wc, +1, N=16, check_resolution=False)

    def test_overflowing_laguerre_factor_names_one_level_on_every_curve(self):
        # One rule, in basis._log_abs: the first (smallest) level past the double range, at its largest t.
        # The circle r = 55 used to name level 203 (the largest), the ellipse 55 x 50 level 192, both at t = 3025.
        message = r"^Laguerre factor of phi_\(k,q\) is not finite at q = 192, t = 3025: past the double range$"
        circle = load_weight(make_circle(55.0), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # N = 16 keeps the ellipse's basis array small: its rows below level 192 are filled before the refusal.
            for wc, check in ((circle, False), (circle, True), (load_weight(make_ellipse(55.0, 50.0), 1.0), False)):
                with pytest.raises(ValueError, match=message):
                    assemble_model(F2, 203, 210, wc, +1, N=16, check_resolution=check)
            with pytest.raises(ValueError, match=message):  # rows k = 192..195 of level 192 overflow at t = 3025
                basis_matrix(F2, 192, [0, 150, 193], [[1.0, 2.0], [55.0, 0.0], [-50.0, 0.0]])

    def test_recentering_invariance(self):
        q, K, r, n = 1, 8, 1.1, 512
        wc = load_weight(make_circle(r, n=n), lambda t: 1.0 + 0.5 * np.cos(t))
        e0 = spectrum(assemble(F2, q, wc, K=K, N=n, check_resolution=False)).eigenvalues
        pts, ds = arclength_rule(wc.curve)
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

        cases = [(b, q, r) for r in np.linspace(0.3, 3.0, 50).tolist() for b in (0.5, 1.0, 2.0, 4.0) for q in range(7)]
        # Census radii, where one diagonal vanishes: up to 12 per level, q <= 8, with b = 25 pi / 16 too.
        for b in (0.5, 2.0, 4.0, 25.0 * math.pi / 16.0):
            cases += [(b, q, e.r) for q in range(1, 9) for e in census(MagneticField(b), q, 4.0)[:12]]
        for b, q, r in cases:
            field, circle = MagneticField(b), make_circle(r)
            for tail_rel in (1e-16, 1e-4):
                assert default_truncation(field, q, circle, tail_rel) == scalar_sweep(field, q, r, tail_rel)
        # A 1e-200 cutoff carries the sweep far past the peak.
        for b, q, r in cases[::7]:
            field = MagneticField(b)
            assert default_truncation(field, q, make_circle(r), 1e-200) == scalar_sweep(field, q, r, 1e-200)

    def test_curve_rule_matches_scalar_sweep(self):
        # Reference for every curve: the per-k maximum of |phi_{k,q}|^2 over
        # the curve's nodes, swept one k at a time with the circle's stop rule.
        def scalar_sweep(field, q, curve, tail_rel):
            points = curve.points
            t_peak = 0.5 * field.b * float(np.max(np.sum(points * points, axis=1)))
            best, below = -math.inf, 0
            for k in range(MAX_TRUNCATION):
                level = float(np.max(np.abs(basis_eval(field, BasisIndex(k, q), points)) ** 2))
                val = math.log(level) if level > 0 else -math.inf
                best = max(best, val)
                if k > q + t_peak and val < best + math.log(tail_rel):
                    below += 1
                    if below == q + 1:
                        return k - (q + 1)
                else:
                    below = 0
            return MAX_TRUNCATION

        def sampled(curve):
            return JordanCurve("sampled", curve.params, curve.points, curve.derivs, ())

        # Node counts that are no power of two, and the circle of radius 1
        # through the origin, whose node 0 is (0, 0): t = 0 there, where the
        # magnitude takes 0 log 0 = 0 for k = q and log 0 = -inf otherwise.
        params = np.linspace(0.0, 2.0 * math.pi, 301, endpoint=False)
        through_origin = JordanCurve(
            "sampled", params, np.column_stack([1.0 - np.cos(params), np.sin(params)]),
            np.column_stack([np.sin(params), np.cos(params)]), (),
        )
        assert not through_origin.points[0].any()
        awkward = [sampled(make_ellipse(1.3, 0.8, n=701)), sampled(make_ellipse(1.1, 0.9, n=2477)), through_origin]
        cases = [(make_ellipse(a, ratio * a, n=256), range(6)) for a in (1.0, 1.4, 2.0) for ratio in (0.5, 0.7, 0.9)]
        cases += [(curve, range(10)) for curve in awkward]
        for b in (0.5, 1.0, 2.0, 4.0):
            field = MagneticField(b)
            for curve, levels in cases:
                for q in levels:
                    ks = [default_truncation(field, q, curve, tail_rel) for tail_rel in (1e-16, 1e-4)]
                    assert ks == [scalar_sweep(field, q, curve, tail_rel) for tail_rel in (1e-16, 1e-4)]
                    # The tail cutoff is honoured on every curve.
                    assert ks[1] < ks[0]

    def test_sweep_blocks_fit_the_cell_budget(self, monkeypatch):
        # Each Laguerre evaluation of the sweep covers at most BLOCK_CELLS
        # (angular index, modulus) cells, or one row, and each modulus once.
        calls = []

        def recording(degrees, alphas, t):
            calls.append((np.broadcast(degrees, alphas, t).shape, np.asarray(t)))
            return laguerre_eval_batch(degrees, alphas, t)

        monkeypatch.setattr(basis, "laguerre_eval_batch", recording)
        e = make_ellipse(1.8, 1.1, n=3000)
        curve = JordanCurve("sampled", e.params, e.points, e.derivs, ())
        for q in (0, 4):
            default_truncation(F2, q, curve)
        assert len(calls) > 2
        for shape, t in calls:
            assert math.prod(shape) <= BLOCK_CELLS or shape[0] == 1
            assert np.unique(t).size == t.size

    def test_circle_sweep_stops_within_its_first_blocks(self, monkeypatch):
        # Rows counted as in test_sweep_blocks_fit_the_cell_budget: a circle's
        # blocks start at 8 (q + 1 + ceil t) rows and double, so a sweep whose
        # stop comes early evaluates far fewer than MAX_TRUNCATION rows.
        rows = []

        def recording(degrees, alphas, t):
            rows.append(np.broadcast(degrees, alphas, t).shape[0])
            return laguerre_eval_batch(degrees, alphas, t)

        monkeypatch.setattr(basis, "laguerre_eval_batch", recording)
        for b, q, r in ((2.0, 1, 1.0), (0.5, 3, 2.2), (4.0, 6, 2.9)):
            rows.clear()
            t = 0.5 * b * r * r
            K = default_truncation(MagneticField(b), q, make_circle(r))
            assert rows[0] == 8 * (q + 1 + math.ceil(t))
            assert K + q + 1 < sum(rows) < MAX_TRUNCATION // 2
            assert all(later == 2 * earlier for earlier, later in zip(rows, rows[1:]))

    def test_no_certified_tail_below_the_cap_raises(self):
        # b = 2, q = 1, r = 25: t = 625, so the stop rule cannot start below
        # k = 512.  The cut used to be MAX_TRUNCATION with the largest
        # diagonal in its last row; now every default K names the level, t
        # and the cap, and an explicit K is used as given.
        circle = make_circle(25.0)
        message = r"level 1: no certified tail below MAX_TRUNCATION = 512 at t_peak = 625; pass K"
        wc = load_weight(circle, 1.0)
        with pytest.raises(ValueError, match=message):
            default_truncation(F2, 1, circle)
        with pytest.raises(ValueError, match=message):
            assemble(F2, 1, wc)
        with pytest.raises(ValueError, match=r"level \d+: no certified tail .* t_peak = 625; pass K"):
            model_truncation(F2, 3, circle)
        with pytest.raises(ValueError, match=message):
            persistence_check(F2, 1, 25.0)
        assert assemble(F2, 1, wc, K=20, check_resolution=False).K == 20
        # A huge t (the sum overflows to inf) is refused as _compress refuses it: no K can help there.
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=r"^t = b r\^2 / 2 is past the double range at b = 1e\+300, r = 1e\+10$"):
            default_truncation(MagneticField(1e300), 0, make_circle(1e10))

    def test_default_truncation_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on its first call in a process (about 11 ms),
        # which every one-shot CLI call with a default K used to pay.
        code = (
            "import sys\n"
            "from landaudelta import MagneticField, assemble, load_weight, make_circle, make_ellipse\n"
            "for curve in (make_circle(1.3), make_ellipse(1.5, 0.8)):\n"
            "    assert assemble(MagneticField(2.0), 1, load_weight(curve, 1.0)).K > 1\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_explicit_census_leaves_numpy_ma_unimported(self):
        # np.unique and np.isin import numpy.ma on their first call in a process (about
        # 12 ms), which every one-shot `census --explicit` call paid.
        code = (
            "import sys\n"
            "from landaudelta.cli import main\n"
            "main(['census', '--q', '2', '--explicit', '5'])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout.splitlines()[-1], proc.stderr) == (0, "False", "")

    @pytest.mark.parametrize("b", [0.5, 2.0, 4.0])
    def test_circle_and_its_samples_truncate_alike(self, b):
        # Generic radii, and census radii of witnesses up to 8 past q, among
        # them the k > q + t witnesses (q, k) = (2, 5), (3, 8), (4, 10), (6, 14).
        field = MagneticField(b)
        radii = [0.37, 1.37, 2.2]
        for q, k in [(q, k) for q in range(1, 7) for k in range(q + 1, q + 9)]:
            radii += [math.sqrt(2.0 * t / b) for t in positive_zeros(q, float(k - q))[:2]]
        for r in radii:
            circle = make_circle(r, n=256)
            sampled = JordanCurve("sampled", circle.params, circle.points, circle.derivs, ())
            for q in range(7):
                for tail_rel in (1e-16, 1e-4):
                    assert default_truncation(field, q, sampled, tail_rel) == default_truncation(field, q, circle, tail_rel)

    def test_curve_rule_bounded(self):
        curve = make_ellipse(1.5, 1.0, n=256)
        K = default_truncation(F2, 1, curve)
        assert 0 < K < 200

    @pytest.mark.parametrize(
        "b, ellipse_ks, sampled_ks",
        [(0.5, [14, 18, 22], [16, 20, 25]), (2.0, [22, 27, 32], [27, 32, 38]), (4.0, [30, 35, 41], [37, 43, 50])],
    )
    def test_curve_rule_pinned_on_ellipses(self, b, ellipse_ks, sampled_ks):
        # The rule sweeps curve.points, which are also the arclength_rule nodes.
        field = MagneticField(b)
        e = make_ellipse(1.8, 1.1, n=200)
        sampled = JordanCurve("sampled", e.params, e.points, e.derivs, ())
        for curve, expected in ((make_ellipse(1.4, 0.9), ellipse_ks), (sampled, sampled_ks)):
            assert [default_truncation(field, q, curve) for q in (0, 2, 5)] == expected
            assert arclength_rule(curve)[0] is curve.points

    def test_one_sweep_gives_each_levels_own_cut(self):
        # _level_cuts over levels 0..Q, any level listed first, against one
        # default_truncation per level in the listed order: the same cuts, in
        # ascending level order, or the refusal of the first level in the
        # list that has no certified tail.  t = b r^2 / 2 runs past the cap
        # of every level (b = 2, r^2 = 625) through t = 440..490, where low
        # levels certify a tail and high ones do not.
        def per_level(field, levels, curve, tail_rel):
            try:
                cuts = {q: default_truncation(field, q, curve, tail_rel) for q in levels}
            except ValueError as exc:
                return str(exc)
            return tuple(cuts[q] for q in sorted(levels))

        def swept(field, levels, curve, tail_rel):
            try:
                return toeplitz._level_cuts(field, levels, curve, tail_rel)
            except ValueError as exc:
                return str(exc)

        e = make_ellipse(1.3, 0.8, n=301)
        curves = [make_circle(r) for r in (0.4, 1.0, 1.7, 2.37, 3.1)]
        curves += [make_ellipse(1.4, 0.9, n=256), JordanCurve("sampled", e.params, e.points, e.derivs, ())]
        cases = [(b, curve) for b in (0.5, 2.0, 4.0, 25.0 * math.pi / 16.0) for curve in curves]
        cases += [(2.0, make_circle(math.sqrt(t))) for t in (440.0, 470.0, 490.0, 625.0)]
        refusals = set()
        for b, curve in cases:
            field = MagneticField(b)
            for Q in (0, 3, 8):
                for first in sorted({0, Q // 2, Q}):
                    levels = (first, *(j for j in range(Q + 1) if j != first))
                    for tail_rel in (1e-4, 1e-16, 1e-200):
                        expected = per_level(field, levels, curve, tail_rel)
                        assert swept(field, levels, curve, tail_rel) == expected
                        if isinstance(expected, str):
                            refusals.add(expected)
        assert len(refusals) > 4  # refusals naming several different levels

    def test_one_sweep_blocks(self, monkeypatch):
        # On a circle (one modulus) every level's first block goes into one
        # Laguerre evaluation; on a curve of many moduli each evaluation
        # holds one level, as a one-level sweep's does.  Every evaluation
        # covers at most BLOCK_CELLS cells.
        calls = []
        log_abs = toeplitz._log_abs

        def recording(field, k, q, t):
            calls.append((np.broadcast(k, q, t).shape, np.unique(q).size))
            return log_abs(field, k, q, t)

        monkeypatch.setattr(toeplitz, "_log_abs", recording)
        # t = 4 * 2.37^2 / 2 = 11.2: level q's first block has 8 (q + 1 + 12) rows.
        assert toeplitz._level_cuts(MagneticField(4.0), tuple(range(9)), make_circle(2.37), 1e-4)
        assert calls == [((sum(8 * (q + 13) for q in range(9)), 1), 9)]
        calls.clear()
        e = make_ellipse(1.8, 1.1, n=3000)
        curve = JordanCurve("sampled", e.params, e.points, e.derivs, ())
        cuts = toeplitz._level_cuts(F2, (2, 0, 1), curve, 1e-4)
        assert cuts == tuple(default_truncation(F2, q, curve, 1e-4) for q in (0, 1, 2))
        assert len(calls) > 3
        for shape, levels in calls:
            assert levels == 1 and (math.prod(shape) <= BLOCK_CELLS or shape[0] == 1)


class TestRowLayout:
    @pytest.mark.parametrize("K", [0, 1, 7])
    @pytest.mark.parametrize("levels", [range(2, 3), range(4)], ids=["level-2", "levels-0-3"])
    def test_rows_run_level_major(self, levels, K):
        layout = RowLayout(levels, K)
        assert [layout.index(j, k) for j, k in zip(layout.j.tolist(), layout.k.tolist())] == list(range(layout.dim))
        for j in levels:
            rows = np.arange(layout.dim)[layout.block(j)]
            assert np.array_equal(rows, np.flatnonzero(layout.j == j))
        assert np.array_equal(layout.m, layout.k - layout.j)
        assert not any(a.flags.writeable for a in (layout.j, layout.k, layout.m))
        wc = load_weight(make_circle(1.0, n=64), lambda t: 1.0 + 0.3 * np.sin(t))
        if len(levels) == 1:
            matrix = assemble(F2, levels[0], wc, K=K, N=64, check_resolution=False)
            shape = matrix.entries.shape
        else:
            matrix = assemble_model(F2, levels[-1], K, wc, +1, N=64, check_resolution=False)
            shape = matrix.matrix.shape
        assert matrix.layout == layout
        assert shape == (layout.dim, layout.dim)

    @pytest.mark.parametrize("levels, cuts", [(range(4), (3, 0, 5, 2)), (range(2, 4), (1, 6)), (range(3), (4, 4, 4))])
    def test_ragged_rows(self, levels, cuts):
        # Reference: the rows spelled out level by level, k = 0..K_j at level j.
        layout = RowLayout(levels, cuts)
        rows = [(j, k) for j, K in zip(levels, cuts) for k in range(K + 1)]
        assert list(zip(layout.j.tolist(), layout.k.tolist())) == rows
        assert np.array_equal(layout.m, layout.k - layout.j)
        assert layout.dim == len(rows) == sum(K + 1 for K in cuts)
        assert [layout.index(j, k) for j, k in rows] == list(range(layout.dim))
        for j, K in zip(levels, cuts):
            rows_j = np.arange(layout.dim)[layout.block(j)]
            assert np.array_equal(rows_j, np.flatnonzero(layout.j == j)) and rows_j.size == K + 1
            with pytest.raises(ValueError, match=re.escape(f"no row (j, k) = ({j}, {K + 1})")):
                layout.index(j, K + 1)
        assert np.array_equal(layout.spread([10.0 * j for j in levels]), 10.0 * layout.j)
        assert not any(a.flags.writeable for a in (layout.j, layout.k, layout.m))
        assert (layout == RowLayout(levels, cuts[0])) == (len(set(cuts)) == 1)

    def test_row_arrays_built_on_first_use(self):
        # index and block need no row arrays; j, k and m are built once, read-only,
        # and take no part in eq, hash or repr.  A matrix's layout is built once too.
        layout = RowLayout(range(1, 4), (2, 5, 3))
        assert layout.index(3, 3) == 12 and layout.block(2) == slice(3, 9)
        assert not {"j", "k", "m"} & set(vars(layout))
        twin = RowLayout(range(1, 4), (2, 5, 3))
        assert layout.m is layout.m and set(vars(layout)) >= {"j", "k", "m"}
        assert not any(a.flags.writeable for a in (layout.j, layout.k, layout.m))
        assert layout == twin and hash(layout) == hash(twin) and repr(layout) == repr(twin)
        assert repr(layout) == "RowLayout(levels=range(1, 4), cuts=(2, 5, 3))"
        wc = load_weight(make_ellipse(1.4, 0.9, n=64), 1.0)
        for matrix in (assemble(F2, 1, wc, K=4, N=64), assemble_model(F2, 2, (3, 4, 5), wc, +1, N=64)):
            assert matrix.layout is matrix.layout

    def test_numpy_integers_accepted(self):
        wc = load_weight(make_circle(1.0, n=64), 1.0)
        plain = assemble(F2, 1, wc, K=4, N=64)
        numpy = assemble(F2, np.int64(1), wc, K=np.int64(4), N=64)
        assert numpy.entries.tobytes() == plain.entries.tobytes()
        model = assemble_model(F2, np.int64(2), np.int64(4), wc, np.int64(-1), N=64)
        assert model.matrix.tobytes() == assemble_model(F2, 2, 4, wc, -1, N=64).matrix.tobytes()
        ragged = assemble_model(F2, np.int64(2), (np.int64(3), 4, np.int64(5)), wc, -1, N=64)
        assert ragged.K == (3, 4, 5) and all(type(cut) is int for cut in ragged.K)
        assert type(default_truncation(F2, np.int64(2), wc.curve)) is int

    def test_numpy_integers_export(self):
        # Both JSON exports round-trip a numpy q, K and Q as the int results.
        wc = load_weight(make_circle(1.0, n=64), 1.0)
        for K in (np.int64(4), None):
            numpy = assemble(F2, np.int64(1), wc, K=K, N=64)
            plain = assemble(F2, 1, wc, K=None if K is None else 4, N=64)
            assert type(numpy.q) is int and type(numpy.K) is int
            assert matrix_to_json(numpy) == matrix_to_json(plain)
            assert matrix_from_json(matrix_to_json(numpy)).entries.tobytes() == plain.entries.tobytes()
        for kwargs in ({}, {"K": np.int64(6), "Q": np.int64(3)}):
            numpy = persistence_check(F2, np.int64(1), 1.0, **kwargs)
            plain = persistence_check(F2, 1, 1.0, **{k: int(v) for k, v in kwargs.items()})
            assert numpy.to_json() == plain.to_json()
            assert json.loads(numpy.to_json())["details"]["cuts"] == plain.details["cuts"]


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
                    fast = next(_circle_sums(field, RowLayout(range(q, q + 1), K), wc, 256))
                    slow = next(_quadrature_sums(field, RowLayout(range(q, q + 1), K), wc, 256))
                    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))
                    assert np.array_equal(fast, fast.conj().T)

    def test_refinement_delta_matches_quadrature(self, tmp_path):
        for weight in sample_weights(tmp_path) + (lambda t: 1.0 + np.cos(16.0 * t),):
            for q in (0, 2, 5):
                wc = load_weight(make_circle(1.1, n=16), weight)
                m = assemble(F2, q, wc, K=12, N=16)
                coarse, fine = islice(_quadrature_sums(F2, RowLayout(range(q, q + 1), 12), wc, 16), 2)
                assert abs(m.refinement_delta - np.max(np.abs(fine - coarse))) <= 1e-12

    def test_entries_bitwise_as_out_of_place_symmetrization(self):
        # The kernel symmetrizes in place and keeps no shift table; its
        # entries must be those of the plain expression form below bit for
        # bit.  numpy may evaluate a product of temporaries in place with
        # the operands swapped, which rounds differently, and only above a
        # size threshold: several sizes (31, 84, 315 among them) and a zero
        # weight are covered.
        def reference(field, layout, wc, size):
            log_lam, phase = toeplitz._circle_amplitudes(field, layout, dict(wc.curve.meta)["r"])
            m = layout.m
            d = np.exp(0.5 * log_lam) * phase
            scaled = d[:, None] * d.conj()[None, :]
            shift = m[None, :] - m[:, None]
            vhat = np.fft.fft(wc.resample(size).values) / size
            mat = scaled * vhat[shift % size]
            return 0.5 * (mat + mat.conj().T)

        weights = (1.0, 0.0, -0.7, three_harmonic)
        for b, r in ((0.5, 0.7), (2.0, 1.0), (4.0, 2.37)):
            field = MagneticField(b)
            for levels, K in ((range(1), 30), (range(3, 4), 83), (range(1, 2), 9), (range(3), 104), (range(2), 41), (range(9), 44)):
                for weight in weights:
                    wc = load_weight(make_circle(r, n=128), weight)
                    layout = RowLayout(levels, K)
                    coarse, fine = islice(_circle_sums(field, layout, wc, 128), 2)
                    assert coarse.tobytes() == reference(field, layout, wc, 128).tobytes()
                    assert fine.tobytes() == reference(field, layout, wc, 256).tobytes()
        # A weight table and an array weight, dims of 300 to 405, and n = 16
        # below the harmonic span of levels 0..8 (m from -8 to 44), where the
        # fold must match shift % size.
        grid = np.linspace(0.0, 2 * math.pi, 97, endpoint=False)
        table = (grid, 1.5 + np.sin(grid) * np.cos(3 * grid))
        array = 1.0 + 0.3 * np.cos(np.linspace(0.0, 2 * math.pi, 128, endpoint=False)) ** 3
        field = MagneticField(4.0)
        for levels, K, n in ((range(1), 299, 128), (range(2, 3), 404, 128), (range(5), 80, 128), (range(3), 101, 64), (range(9), 44, 16)):
            for weight in (table, array, three_harmonic):
                wc = load_weight(make_circle(2.37, n=128), weight)
                layout = RowLayout(levels, K)
                coarse, fine = islice(_circle_sums(field, layout, wc, n), 2)
                assert coarse.tobytes() == reference(field, layout, wc, n).tobytes()
                assert fine.tobytes() == reference(field, layout, wc, 2 * n).tobytes()

    def test_one_cut_tables_bitwise_as_one_strided_view(self, tmp_path):
        # An int K is every level's cut: the block-by-block table must be,
        # byte for byte, the one-cut table read as a single 4-D strided view
        # of the fold over (j, k, j', k'), and the matrices through both
        # doors the same as with K spelled out per level.
        def one_view_table(fold, layout):
            rows, cols, step = len(layout.levels), layout.cuts[0] + 1, fold.strides[0]
            view = np.lib.stride_tricks.as_strided(fold[fold.size // 2:], (rows, cols, rows, cols), (step, -step, -step, step))
            return view.reshape(layout.dim, layout.dim)

        e = make_ellipse(1.8, 1.1, n=211)
        curves = (make_circle(1.37), make_ellipse(1.4, 0.9), JordanCurve("sampled", e.params, e.points, e.derivs, ()))
        for b in (0.5, 2.0, 4.0):
            field = MagneticField(b)
            for weight in sample_weights(tmp_path):
                for curve in curves:
                    wc = load_weight(curve, weight)
                    for Q in range(6):
                        model = assemble_model(field, Q, 7, wc, -1, N=64)
                        spelled = assemble_model(field, Q, (7,) * (Q + 1), wc, -1, N=64)
                        assert model.matrix.tobytes() == spelled.matrix.tobytes()
                        assert model.provenance == spelled.provenance
                    if curve.kind != "circle":
                        continue
                    vhat = np.fft.fft(wc.sample(64)) / 64
                    layouts = [RowLayout(range(q, q + 1), 9) for q in range(7)] + [RowLayout(range(Q + 1), 7) for Q in range(6)]
                    for layout in layouts:
                        span = int(layout.m.max() - layout.m.min())
                        fold = vhat[np.arange(-span, span + 1) % 64]
                        assert toeplitz._harmonic_toeplitz(fold, layout).tobytes() == one_view_table(fold, layout).tobytes()

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
    """The trapezoid sum over basis samples at all n nodes of wc.resample(n); K is every level's cut or one per level."""
    wcn = wc.resample(n)
    points, ds = arclength_rule(wcn.curve)
    cuts = K if isinstance(K, tuple) else (K,) * len(levels)
    phi = np.vstack([basis_matrix(field, j, range(cut + 1), points) for j, cut in zip(levels, cuts)])
    m = (phi * (wcn.values * ds)) @ phi.conj().T
    return 0.5 * (m + m.conj().T)


def sampled_ellipse(a, c, nodes):
    """An ellipse known only through its samples (resampled by their trigonometric interpolant)."""
    ell = make_ellipse(a, c, n=nodes)
    return JordanCurve("sampled", ell.params, ell.points, ell.derivs, ())


def counting_samples(monkeypatch):
    """A Counter, filled while monkeypatch is active, of the basis samples toeplitz evaluates per row (level j, index k)."""
    points = collections.Counter()
    parts_arrays = toeplitz._parts_arrays

    def counting(field, k, q, pts):
        for row in zip(np.ravel(q).tolist(), np.ravel(k).tolist()):  # the j and k columns of one row block
            points[row] += len(pts)
        return parts_arrays(field, k, q, pts)

    monkeypatch.setattr(toeplitz, "_parts_arrays", counting)
    return points


class TestNestedResolution:
    """The 2N matrix as half the N-rule sum plus half the odd-node sum."""

    def test_matches_direct_quadrature(self, tmp_path):
        # Reference: the direct 2N quadrature, every basis row evaluated at all 2N nodes.
        K = 12
        flags = set()
        for curve in (make_ellipse(1.4, 0.9), sampled_ellipse(1.4, 0.9, 97)):
            for weight in (three_harmonic, sample_weights(tmp_path)[2]):
                wc = load_weight(curve, weight)
                # At n = 16 the rule is too coarse for K = 12 on either curve.
                for n in (16, 32, 64, 128):
                    single = [assemble(F2, q, wc, K=K, N=n) for q in (0, 2, 5)]
                    model = assemble_model(F2, 3, K, wc, +1, N=n)
                    runs = [(m.layout, m.entries, m.refinement_delta, m.underresolved) for m in single]
                    runs.append((model.layout, model.coupling, model.refinement_delta, model.underresolved))
                    for layout, entries, got_delta, flag in runs:
                        coarse = direct_quadrature(F2, layout.levels, K, wc, n)
                        fine = direct_quadrature(F2, layout.levels, K, wc, 2 * n)
                        scale = np.max(np.abs(fine))
                        assert entries.tobytes() == coarse.tobytes()
                        _, nested = islice(_quadrature_sums(F2, layout, wc, n), 2)
                        assert np.max(np.abs(nested - fine)) <= 1e-14 * scale
                        delta = float(np.max(np.abs(fine - coarse)))
                        assert abs(got_delta - delta) <= 1e-15 * scale
                        assert flag == (delta > RESOLUTION_DELTA_TOL * np.max(np.abs(coarse)))
                        flags.add(flag)
        assert flags == {True, False}

    def test_check_costs_n_further_samples(self, monkeypatch):
        # A checked assembly evaluates 2N points per level row, an unchecked one N.
        points = counting_samples(monkeypatch)
        wc = load_weight(make_ellipse(1.4, 0.9), three_harmonic)
        n = 64
        for check in (True, False):
            per_row = 2 * n if check else n
            points.clear()
            m = assemble(F2, 2, wc, K=8, N=n, check_resolution=check)
            assert points == {(2, k): per_row for k in range(9)}
            assert (m.refinement_delta is not None) == check
            points.clear()
            model = assemble_model(F2, 3, 8, wc, -1, N=n, check_resolution=check)
            assert points == {(j, k): per_row for j in range(4) for k in range(9)}
            assert (model.refinement_delta is not None) == check

    @pytest.mark.parametrize("K", [40, (40, 3, 57, 12)])
    def test_row_blocks_across_levels_bitwise(self, K):
        # N = 256: blocks of BLOCK_CELLS // 256 = 32 rows.  At K = 40 the levels
        # start at rows 41, 82 and 123, so blocks cut through every level boundary;
        # the ragged cuts start them at rows 41, 45 and 103.
        wc = load_weight(make_ellipse(1.4, 0.9), three_harmonic)
        assert BLOCK_CELLS // 256 == 32
        expected = direct_quadrature(F2, range(4), K, wc, 256)
        for check in (False, True):
            model = assemble_model(F2, 3, K, wc, +1, N=256, check_resolution=check)
            assert model.coupling.tobytes() == expected.tobytes()
        single = assemble(F2, 2, wc, K=100, N=256, check_resolution=False)  # 101 rows: four blocks of one level
        assert single.entries.tobytes() == direct_quadrature(F2, [2], 100, wc, 256).tobytes()

    def test_peak_is_about_two_basis_arrays(self, peak_matrices):
        # Phi is filled in row blocks into one dim x N array; the product holds it
        # (conjugated in place) beside Phi w.  It read 2.06 unchecked and 2.15
        # checked; three basis arrays (3.05) when the per-level rows were stacked.
        wc = load_weight(make_ellipse(1.4, 0.9), lambda t: 1.0 + 0.3 * np.sin(t))
        dim, n = 4 * 41, 4096
        for check in (False, True):
            warm = assemble_model(F2, 3, 40, wc, +1, N=n, check_resolution=check)
            model, peak = peak_matrices(lambda: assemble_model(F2, 3, 40, wc, +1, N=n, check_resolution=check), 1)
            assert model.coupling.tobytes() == warm.coupling.tobytes()
            assert peak / (dim * n) <= 2.2


def step_weight(t):
    """A weight with a jump: its trapezoid sums converge like 1/N, never to 1e-14."""
    return (t < math.pi).astype(float)


class TestAdaptiveNodes:
    """N=None: start at the least power of two >= max(64, 2(K + level + 1)) and
    double through the nested sums until the 2N matrix is within 1e-14 max|M|."""

    @pytest.mark.parametrize("curve, K", [(make_circle(10.0), 349), (make_ellipse(6.0, 3.0), 188)])
    def test_delta_tracks_error_at_high_K(self, curve, K):
        field = MagneticField(4.0)
        for weight in (1.0, three_harmonic):
            wc = load_weight(curve, weight)
            m = assemble(field, 2, wc, K=K)
            assert m.provenance["N_sequence"][0] == (1024 if curve.kind == "circle" else 512)
            assert m.provenance["N"] == m.provenance["N_sequence"][-1]
            assert m.refinement_delta == m.provenance["delta_sequence"][-1]
            reference = assemble(field, 2, wc, K=K, N=8192, check_resolution=False).entries
            error = np.max(np.abs(m.entries - reference))
            assert error <= m.refinement_delta + 1e-14 * np.max(np.abs(reference))

    def test_unchecked_assembles_once_at_the_start_size(self, monkeypatch):
        points = counting_samples(monkeypatch)
        wc = load_weight(make_ellipse(1.4, 0.9), three_harmonic)
        for check in (False, True):
            points.clear()
            m = assemble(F2, 2, wc, K=8, check_resolution=check)
            assert m.provenance["N"] == 64
            assert points == {(2, k): 128 if check else 64 for k in range(9)}
            assert ("N_sequence" in m.provenance) == check
            assert (m.underresolved, m.refinement_delta is None) == ((False, False) if check else (None, True))
            points.clear()
            model = assemble_model(F2, 3, 40, wc, +1, check_resolution=check)
            assert model.provenance["N"] == 128  # 2 (40 + 3 + 1) = 88
            assert points == {(j, k): 256 if check else 128 for j in range(4) for k in range(41)}

    def test_circle_check_costs_one_further_fft(self, monkeypatch):
        ffts = []
        fft = np.fft.fft

        def counting(a, *args, **kwargs):
            ffts.append(np.shape(a))
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counting)
        wc = load_weight(make_circle(1.3), three_harmonic)
        for check, sizes in ((True, [(64,), (128,)]), (False, [(64,)])):
            ffts.clear()
            assemble(F2, 2, wc, K=8, check_resolution=check)
            assert ffts == sizes
        ffts.clear()
        assert persistence_check(F2, 1, 1.0, weight=three_harmonic).persists
        assert len(ffts) == 1

    @pytest.mark.parametrize("curve", [make_circle(1.1), make_ellipse(1.4, 0.9)])
    def test_cap_sets_the_flag(self, curve):
        m = assemble(F2, 1, load_weight(curve, step_weight), K=3)
        assert m.provenance["N_sequence"] == [64 * 2**i for i in range(8)]
        assert m.provenance["N"] == toeplitz.ADAPTIVE_NODE_CAP == 8192
        assert m.underresolved is True
        assert m.refinement_delta > RESOLUTION_DELTA_TOL

    def test_slow_sample_tail_sets_the_flag(self):
        # The interpolant of a kinked table is smooth, so the nested check
        # settles; the tail of the native samples still flags the matrix.
        t = np.linspace(0.0, 2 * math.pi, 200, endpoint=False)
        kinked = load_weight(make_ellipse(1.4, 0.9), (t, np.abs(np.sin(t))))
        for check in (True, False):
            m = assemble(F2, 1, kinked, K=6, check_resolution=check)
            assert m.underresolved is True
            assert 1e-4 < m.provenance["weight_tail"] < 1e-3
        assert m.refinement_delta is None
        assert assemble(F2, 1, kinked, K=6).refinement_delta <= RESOLUTION_DELTA_TOL
        smooth = assemble(F2, 1, load_weight(make_ellipse(1.4, 0.9), (t, three_harmonic(t))), K=6)
        assert smooth.underresolved is False
        assert smooth.provenance["weight_tail"] <= 1e-15


class TestScaleInvariance:
    """T_q(v) is linear in v: scaling v by a power of two (exact in binary) scales
    the entries and changes no decision."""

    scales = (2.0**-30, 2.0**30)

    @staticmethod
    def scaled(weight, s):
        return s * weight if isinstance(weight, float) else (lambda t: s * weight(t))

    @pytest.mark.parametrize("curve", [make_circle(1.0), make_ellipse(1.4, 0.9)])
    def test_entries_scale_and_decisions_do_not_move(self, curve):
        flags = set()
        for weight in (1.0, three_harmonic, step_weight):
            wc = load_weight(curve, weight)
            m = assemble(F2, 1, wc)
            flags.add(m.underresolved)
            for s in self.scales:
                wcs = load_weight(curve, self.scaled(weight, s))
                ms = assemble(F2, 1, wcs)
                assert ms.entries.tobytes() == (s * m.entries).tobytes()
                assert ms.refinement_delta == s * m.refinement_delta
                assert ms.provenance["N_sequence"] == m.provenance["N_sequence"]
                assert ms.underresolved == m.underresolved
                assert wcs.sign_class == wc.sign_class
                assert kernel_dim_estimate(ms).count == kernel_dim_estimate(m).count
        assert flags == {True, False}

    @pytest.mark.parametrize("r", [1.0, 1.37])
    def test_persistence_verdict(self, r):
        for weight in (1.0, three_harmonic):
            verdict = persistence_check(F2, 1, r, weight=weight).persists
            assert verdict == (r == 1.0)
            for s in self.scales:
                assert persistence_check(F2, 1, r, weight=self.scaled(weight, s)).persists == verdict

    def test_sign_class_of_a_tiny_indefinite_weight(self):
        for s in (2.0**-50, 1.0, 2.0**50):
            assert load_weight(make_circle(1.0), lambda t: s * np.cos(t)).sign_class == "indefinite"
            assert load_weight(make_circle(1.0), s * 0.0).sign_class == "nonnegative"

    def test_scaled_non_hermitian_matrix_rejected(self):
        m = assemble(F2, 1, load_weight(make_circle(1.37), three_harmonic), K=8).entries.copy()
        m[0, 1] += 1e-6 * np.max(np.abs(m))
        for s in (2.0**-30, 1.0, 2.0**30):
            for door in (toeplitz.eigenvalues, spectrum):
                with pytest.raises(ValueError, match="not Hermitian"):
                    door(s * m)
        assert np.array_equal(toeplitz.eigenvalues(np.zeros((3, 3))), np.zeros(3))


def compress(field, level, K, wc, model, **kwargs):
    """(interaction matrix, result) of assemble at level q or of assemble_model up to level Q."""
    if model:
        result = assemble_model(field, level, K, wc, +1, **kwargs)
        return result.coupling, result
    result = assemble(field, level, wc, K=K, **kwargs)
    return result.entries, result


def test_replay_corpus_matches_the_fixed_rule():
    # Analytic circles and ellipses, single levels q <= 6 and models Q <= 5
    # at the default K: the adaptive matrix lies within 1e-14 max|M| of the
    # N = 1024 one, carries the same flag, and its delta bounds its
    # distance to the N = 4096 matrix.
    curves = (make_circle(0.8), make_circle(3.0), make_ellipse(1.4, 0.9), make_ellipse(3.0, 1.8))
    weights = (1.0, three_harmonic, lambda t: 1.5 + np.sin(t) * np.cos(3 * t))
    for i, (b, curve) in enumerate((b, c) for b in (0.5, 2.0, 4.0) for c in curves):
        field = MagneticField(b)
        wc = load_weight(curve, weights[i % 3])
        cells = [(q, default_truncation(field, q, curve), False) for q in (0, 3, 6)]
        cells += [(Q, model_truncation(field, Q, curve), True) for Q in (2, 5)]
        for level, K, model in cells:
            entries, adaptive = compress(field, level, K, wc, model)
            fixed_entries, fixed = compress(field, level, K, wc, model, N=1024)
            reference, _ = compress(field, level, K, wc, model, N=4096, check_resolution=False)
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(entries - fixed_entries)) <= 1e-14 * scale
            assert adaptive.underresolved == fixed.underresolved
            assert np.max(np.abs(entries - reference)) <= adaptive.refinement_delta + 1e-14 * scale


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

    def test_non_finite_rejected_by_name(self):
        for bad in (math.inf, -math.inf, math.nan, complex(0.0, math.nan)):
            m = np.eye(3, dtype=complex)
            m[1, 1] = bad
            for door in (toeplitz.eigenvalues, spectrum):
                with pytest.raises(ValueError, match="non-finite"):
                    door(m)

    def test_nan_residual_fails_the_guard(self, monkeypatch):
        vals, vecs = np.linalg.eigh(np.eye(2))
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (vals, np.full_like(vecs, math.nan)))
        with pytest.raises(ValueError, match="eigenpair residual"):
            spectrum(np.eye(2, dtype=complex))


class TestEigenvalues:
    def test_bitwise_eigvalsh_descending(self):
        ellipse = load_weight(make_ellipse(1.3, 0.9, n=512), lambda t: np.cos(t) - 0.2 * np.sin(3 * t))
        circle = load_weight(make_circle(1.0, n=512), 1.0)
        for wc, q in ((ellipse, 2), (circle, 1)):
            m = assemble(F2, q, wc, K=12, N=512, check_resolution=False)
            got = toeplitz.eigenvalues(m)
            assert got.tobytes() == np.linalg.eigvalsh(m.entries)[::-1].tobytes()
            assert toeplitz.eigenvalues(m.entries).tobytes() == got.tobytes()

    @pytest.mark.parametrize(
        "matrix, message",
        [(np.zeros((0, 0)), "empty matrix"), (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), "not Hermitian")],
    )
    def test_rejects_as_spectrum_does(self, matrix, message):
        for door in (toeplitz.eigenvalues, spectrum):
            with pytest.raises(ValueError, match=message):
                door(matrix)

    @pytest.mark.parametrize(
        "shape", [(2, 3), (3, 2), (0, 3), (3,), (), (2, 2, 2)], ids=["2x3", "3x2", "0x3", "vector", "scalar", "stack"]
    )
    def test_refuses_all_but_square_two_dimensional_arrays(self, shape):
        for door in (toeplitz.eigenvalues, spectrum):
            with pytest.raises(ValueError, match=re.escape(f"matrix must be a square 2-D array, got shape {shape}")):
                door(np.ones(shape, dtype=complex))

    def test_allocates_one_block_beyond_its_input(self, peak_matrices):
        # LAPACK's own copy of the matrix is not traced; max|M| and the
        # Hermitian defect read one row block at a time.  Reading each
        # as a whole-matrix expression came to 1.5 matrices.
        rng = np.random.default_rng(531)
        a = rng.standard_normal((531, 531)) + 1j * rng.standard_normal((531, 531))
        m = 0.5 * (a + a.conj().T)
        expected = np.linalg.eigvalsh(m)[::-1]
        vals, peak = peak_matrices(lambda: toeplitz.eigenvalues(m), 531)
        assert vals.tobytes() == expected.tobytes()
        assert peak <= 0.25


class TestHermitianGuard:
    @pytest.mark.parametrize("dim", [24, 392])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_decides_as_the_plain_expression(self, dim, factor):
        # A defect of factor x the 1e-12 max|M| bound at one entry pair.
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = 0.5 * (a + a.conj().T)
        m[3, 7] += factor * 1e-12 * float(np.max(np.abs(m)))
        rejected = float(np.max(np.abs(m - m.conj().T))) > 1e-12 * float(np.max(np.abs(m)))
        assert rejected == (factor > 1.0)
        for door in (toeplitz.eigenvalues, spectrum):
            if rejected:
                with pytest.raises(ValueError, match="not Hermitian"):
                    door(m)
            else:
                door(m)
        for bad in (np.nan, np.inf):
            broken = m.copy()
            broken[7, 3] = bad
            with pytest.raises(ValueError, match="non-finite"):
                toeplitz.eigenvalues(broken)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_row_blocks_read_the_last_block_and_keep_the_bound(self, factor):
        # 392 rows in blocks of BLOCK_CELLS // 392 = 20, the last one
        # partial.  The only defect is an imaginary part on the last
        # diagonal entry, which no row but the last reads: |M - M^H| there
        # is twice it, factor x the 1e-12 max|M| bound.
        dim = 392
        assert 1 < BLOCK_CELLS // dim < dim and dim % (BLOCK_CELLS // dim)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = 0.5 * (a + a.conj().T)
        m[-1, -1] += 0.5j * factor * 1e-12 * float(np.max(np.abs(m)))
        defect = np.abs(m - m.conj().T)
        assert np.count_nonzero(defect) == 1
        rejected = float(np.max(defect)) > 1e-12 * float(np.max(np.abs(m)))
        assert rejected == (factor > 1.0)
        for door in (toeplitz.eigenvalues, spectrum):
            if rejected:
                with pytest.raises(ValueError, match="not Hermitian"):
                    door(m)
            else:
                door(m)
        for bad in (np.nan, np.inf):
            broken = m.copy()
            broken[-1, -1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                toeplitz.eigenvalues(broken)


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

    @pytest.mark.parametrize("q, census_m", [(0, 0), (1, 1)])
    def test_underflowing_circle_is_no_zero_weight(self, q, census_m):
        # b = 2, r = 100: t = 1e4 = census.T_MAX, and every lambda_{k,q}(r),
        # k <= 4, underflows, so the unit-weight matrix is identically zero.
        # At q = 1, t = 1e4 is the zero of L_1^(k-1) at k = 10000.
        wc = load_weight(make_circle(100.0, n=64), 1.0)
        m = assemble(F2, q, wc, K=4, N=64, check_resolution=False)
        assert not m.entries.any()
        assert all(circle_diagonal(F2, q, k, 100.0) == 0.0 for k in range(5))
        est = kernel_dim_estimate(m)
        assert est.count == 5
        assert est.census_multiplicity == census_m
        assert est.note.startswith("entries underflow at t = b r^2 / 2 = 10000:")
        assert "degenerate" not in est.note
        # Past T_MAX the census value is refused, as for a nonzero circle.
        far = assemble(F2, 1, load_weight(make_circle(200.0, n=64), 1.0), K=4, N=64, check_resolution=False)
        with pytest.raises(ValueError, match="past the census limit T_MAX"):
            kernel_dim_estimate(far)

    def test_zero_weight_flagged(self):
        wc = load_weight(make_circle(1.0, n=256), 0.0)
        m = assemble(F2, 1, wc, K=6, N=256, check_resolution=False)
        est = kernel_dim_estimate(m)
        assert est.count == 7
        assert "degenerate" in est.note


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


@pytest.mark.parametrize("call, message", [
    (lambda: assemble(F2, -1, load_weight(make_circle(1.0, n=64), 1.0)), "level q must be >= 0, got -1"),
    (lambda: assemble(F2, 0, load_weight(make_circle(1.0, n=64), 1.0), K=-1), "truncation K must be >= 0, got -1"),
    (lambda: assemble(F2, 2.0, load_weight(make_circle(1.0, n=64), 1.0)), "level q must be an integer, got 2.0"),
    (lambda: assemble(F2, True, load_weight(make_circle(1.0, n=64), 1.0)), "level q must be an integer, got True"),
    (lambda: assemble(F2, 1, load_weight(make_circle(1.0, n=64), 1.0), K=4.0), "truncation K must be an integer, got 4.0"),
    (lambda: default_truncation(F2, 1.5, make_circle(1.0)), "level q must be an integer, got 1.5"),
    (lambda: default_truncation(F2, 1, make_circle(1.0), tail_rel=0.0), "tail_rel must lie in (0, 1), got 0.0"),
    (lambda: default_truncation(F2, 1, make_circle(1.0), tail_rel=math.nan), "tail_rel must lie in (0, 1), got nan"),
    (lambda: default_truncation(F2, 1, make_circle(1.0), tail_rel=1.0), "tail_rel must lie in (0, 1), got 1.0"),
    (lambda: RowLayout(range(0, 4, 2), 3), "rows need a nonempty step-1 range of levels >= 0, got range(0, 4, 2)"),
    (lambda: RowLayout([0, 1], 3), "rows need a nonempty step-1 range of levels >= 0, got [0, 1]"),
    (lambda: circle_diagonal_log(F2, -1, 2, 1.0), "level q must be >= 0, got -1"),
    (lambda: circle_diagonal_log(F2, 1, -1, 1.0), "angular index k must be >= 0, got -1"),
    (lambda: RowLayout(range(2, 4), 3).index(1, 0), "no row (j, k) = (1, 0) in levels range(2, 4) at K = 3"),
    (lambda: RowLayout(range(2, 4), 3).index(2, 4), "no row (j, k) = (2, 4) in levels range(2, 4) at K = 3"),
    (lambda: RowLayout(range(3), (2, 3)), "rows need one cut per level of range(0, 3), got K = (2, 3)"),
    (lambda: RowLayout(range(2), (2, -1)), "truncation K must be >= 0, got -1"),
    (lambda: RowLayout(range(3), (4, 5, 3)).index(2, 4), "no row (j, k) = (2, 4) in levels range(0, 3) at K = (4, 5, 3)"),
    (lambda: RowLayout(range(3), (4, 5, 6)).index(0, 1.5), "angular index k must be an integer, got 1.5"),
    (lambda: RowLayout(range(3), (4, 5, 6)).index(2, 2.0), "angular index k must be an integer, got 2.0"),
    (lambda: RowLayout(range(3), (4, 5, 6)).index(1, True), "angular index k must be an integer, got True"),
    (lambda: RowLayout(range(3), (4, 5, 6)).index(1, "1"), "angular index k must be an integer, got '1'"),
    (lambda: RowLayout(range(3), (4, 5, 6)).index(1.0, 2), "level j must be an integer, got 1.0"),
    (lambda: RowLayout(range(3), (4, 5, 6)).block(1.0), "level j must be an integer, got 1.0"),
    (lambda: RowLayout(range(3), (4, 5, 6)).block(True), "level j must be an integer, got True"),
    (lambda: RowLayout(range(3), (4, 5, 6)).block(3), "no row (j, k) = (3, 0) in levels range(0, 3) at K = (4, 5, 6)"),
    (lambda: toeplitz.eigenvalues(np.eye(3)), "eigensolve failed to converge: no convergence"),
    (lambda: spectrum(np.eye(3)), "eigensolve failed to converge: no convergence"),
], ids=["negative-q", "negative-K", "float-q", "bool-q", "float-K", "float-q-truncation", "tail-rel-zero",
        "tail-rel-nan", "tail-rel-one", "layout-step-2",
        "layout-list", "diagonal-negative-q", "diagonal-negative-k", "layout-level-outside", "layout-k-outside",
        "layout-cuts-per-level", "layout-negative-cut", "layout-k-past-its-cut", "layout-float-k",
        "layout-integral-float-k", "layout-bool-k", "layout-str-k", "layout-float-j", "layout-block-float-j",
        "layout-block-bool-j", "layout-block-outside", "eigenvalues-no-convergence", "spectrum-no-convergence"])
def test_refusals_name_their_input(call, message, monkeypatch):
    # Solvers that never converge: only the eigensolve doors call them.
    def no_convergence(m):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()
