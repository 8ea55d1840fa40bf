import math
import re
from itertools import islice

import numpy as np
import pytest

from landaudelta.basis import BasisIndex, MagneticField, translated_parts
from landaudelta import galerkin, toeplitz
from landaudelta.census import census
from landaudelta.curves import JordanCurve, arclength_rule, load_weight, make_circle, make_ellipse, save_weight
from landaudelta.galerkin import (
    assemble_model,
    cluster_report,
    flat_index,
    model_truncation,
    persistence_check,
)
from landaudelta.laguerre import positive_zeros
from landaudelta.toeplitz import _circle_sums, _quadrature_sums, assemble, spectrum

F2 = MagneticField(2.0)


def trig_weight(c0, cos, sin):
    """v(t) = c0 + sum_h cos[h-1] cos(h t) + sin[h-1] sin(h t)."""
    h = np.arange(1, len(cos) + 1)[:, None]
    return lambda t: c0 + np.asarray(cos) @ np.cos(h * t) + np.asarray(sin) @ np.sin(h * t)


def indefinite_weight(rng):
    """A random three-harmonic weight that takes both signs."""
    t = np.linspace(0.0, 2 * math.pi, 1024, endpoint=False)
    while True:
        cos, sin = rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3)
        w = trig_weight(rng.uniform(-0.3, 0.3) * np.sum(np.abs(cos) + np.abs(sin)), cos, sin)
        if w(t).min() < -1e-3 and w(t).max() > 1e-3:
            return w


class TestAssembleModel:
    def test_unperturbed_is_exact_landau_spectrum(self):
        wc = load_weight(make_circle(1.0, n=256), 0.0)
        model = assemble_model(F2, 2, 5, wc, +1, N=256, check_resolution=False)
        vals = np.sort(spectrum(model.matrix).eigenvalues)
        expected = np.sort(np.repeat([2.0, 6.0, 10.0], 6))
        assert np.array_equal(vals, expected)

    def test_diagonal_block_matches_toeplitz(self):
        wc = load_weight(make_circle(1.2, n=512), lambda t: 1.0 + 0.3 * np.sin(t))
        model = assemble_model(F2, 2, 6, wc, +1, N=512, check_resolution=False)
        for q in range(3):
            block = model.coupling[flat_index(q, 0, 6) : flat_index(q, 6, 6) + 1,
                                   flat_index(q, 0, 6) : flat_index(q, 6, 6) + 1]
            t = assemble(F2, q, wc, K=6, N=512, check_resolution=False)
            assert np.max(np.abs(block - t.entries)) < 1e-12

    def test_resonant_level_present(self):
        # circle r=1 is resonant for the first level at b=2 (witness k=1)
        wc = load_weight(make_circle(1.0, n=512), 1.0)
        model = assemble_model(F2, 2, 6, wc, +1, N=512, check_resolution=False)
        vals = spectrum(model.matrix).eigenvalues
        assert np.min(np.abs(vals - 6.0)) < 1e-9

    @pytest.mark.parametrize("curve", [make_circle(1.2, n=256), make_ellipse(1.3, 0.9, n=256)])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_matrix_exactly_hermitian(self, curve, sign):
        # H = diag(Lambda) + sign * B is Hermitian with no symmetrization:
        # the coupling is exactly Hermitian and the diagonal is real.
        for weight in (1.0, lambda t: 0.3 + np.cos(t) - 0.6 * np.sin(2 * t)):
            model = assemble_model(F2, 2, 9, load_weight(curve, weight), sign, N=256)
            assert np.array_equal(model.coupling, model.coupling.conj().T)
            assert np.array_equal(model.matrix, model.matrix.conj().T)
            assert np.all(np.diag(model.matrix).imag == 0)

    @pytest.mark.parametrize("curve", [make_circle(1.2, n=256), make_ellipse(1.3, 0.9, n=256)])
    def test_provenance_as_single_level(self, curve):
        # One provenance for both front doors: r on circles, none on other curves.
        wc = load_weight(curve, lambda t: 1.0 + 0.3 * np.sin(t))
        model = assemble_model(F2, 2, 6, wc, +1, N=256)
        assert model.provenance == assemble(F2, 1, wc, K=6, N=256).provenance
        assert model.provenance.get("r") == (1.2 if curve.kind == "circle" else None)

    def test_node_minimum_on_circles(self):
        wc = load_weight(make_circle(1.0), 1.0)
        with pytest.raises(ValueError, match="at least 16 nodes, got 8"):
            assemble_model(F2, 2, 4, wc, +1, N=8)
        with pytest.raises(ValueError, match="at least 16 nodes, got 8"):
            persistence_check(F2, 1, 1.0, weight=1.0, N=8)

    def test_bad_sign_rejected(self):
        wc = load_weight(make_circle(1.0, n=256), 1.0)
        with pytest.raises(ValueError):
            assemble_model(F2, 1, 4, wc, 0, N=256)

    def test_weyl_monotonicity(self):
        wc = load_weight(make_circle(1.2, n=512), lambda t: 1.0 + 0.4 * np.cos(t))
        plus = assemble_model(F2, 2, 8, wc, +1, N=512, check_resolution=False)
        minus = assemble_model(F2, 2, 8, wc, -1, N=512, check_resolution=False)
        bare = np.sort(np.repeat(plus.levels(), 9))
        ep = np.sort(spectrum(plus.matrix).eigenvalues)
        en = np.sort(spectrum(minus.matrix).eigenvalues)
        assert np.all(ep >= bare - 1e-12)
        assert np.all(en <= bare + 1e-12)
        assert np.all(ep >= en - 1e-12)

    def test_gauge_recentering(self):
        q, Q, K, r, n = 1, 2, 8, 1.0, 512
        wc = load_weight(make_circle(r, n=n), lambda t: 1.0 + 0.5 * np.sin(t))
        base = assemble_model(F2, Q, K, wc, +1, N=n, check_resolution=False)
        e0 = spectrum(base.matrix).eigenvalues

        y = np.array([0.6, 0.35])
        pts, ds = arclength_rule(wc.curve)
        shifted = pts + y[None, :]
        rows = []
        for j in range(Q + 1):
            for k in range(K + 1):
                la, ph = translated_parts(F2, BasisIndex(k, j), y)(shifted)
                rows.append(np.exp(la) * np.exp(1j * ph))
        phi = np.array(rows)
        b = (phi * (wc.values * ds)) @ phi.conj().T
        lam = np.repeat([F2.landau_level(j) for j in range(Q + 1)], K + 1)
        h = np.diag(lam).astype(complex) + 0.5 * (b + b.conj().T)
        e1 = spectrum(0.5 * (h + h.conj().T)).eigenvalues
        assert np.max(np.abs(e0 - e1)) < 1e-8


class TestHamiltonian:
    def test_bytes_as_diagonal_plus_signed_coupling(self):
        # Reference: the dense form diag(Lambda) + sign * B.  Its zero
        # diagonal matrix turns each -0.0 of sign * B into +0.0, so a bare
        # sign * B with Lambda added on its diagonal would differ in bytes.
        rng = np.random.default_rng(3)
        cases = [(3, 12, load_weight(make_circle(1.3), w)) for w in (1.0, 0.0, -0.8, trig_weight(1.0, [0.3, -0.2], [0.1, 0.4]))]
        cases.append((2, 30, load_weight(make_ellipse(1.4, 0.9), indefinite_weight(rng))))
        seen_negative_zero = False
        for Q, K, wc in cases:
            coupling = assemble_model(F2, Q, K, wc, +1, check_resolution=False).coupling
            lam = np.repeat([F2.landau_level(j) for j in range(Q + 1)], K + 1)
            for sign in (+1, -1):
                reference = np.diag(lam).astype(complex) + sign * coupling
                h = galerkin._hamiltonian(F2, Q, K, coupling, sign)
                assert h.tobytes() == reference.tobytes()
                parts = (sign * coupling).view(float)
                seen_negative_zero |= bool(np.any((parts == 0.0) & np.signbit(parts)))
        assert seen_negative_zero


class TestWeightedCouplingOracle:
    def test_circle_couplings_match_fourier_closed_form(self):
        # On a circle each basis function is a fixed modulus times
        # e^(i(k-j)theta), so a weight c0 + a cos + b sin couples only
        # harmonic distances 0 and +-1, with explicit coefficients.
        from landaudelta.basis import basis_eval_parts

        r, Q, K = 1.2, 2, 4
        c0, a, b = 2.0, 0.7, -0.4
        wc = load_weight(make_circle(r, n=1024), lambda t: c0 + a * np.cos(t) + b * np.sin(t))
        model = assemble_model(F2, Q, K, wc, +1, N=1024, check_resolution=False)

        def parts(k, j):
            return basis_eval_parts(F2, BasisIndex(k, j), (r, 0.0))

        worst = 0.0
        for j in range(Q + 1):
            for k in range(K + 1):
                for jp in range(Q + 1):
                    for kp in range(K + 1):
                        l1, p1 = parts(k, j)
                        l2, p2 = parts(kp, jp)
                        d = (k - j) - (kp - jp)
                        ang = {0: 2 * math.pi * c0,
                               1: a * math.pi + 1j * b * math.pi,
                               -1: a * math.pi - 1j * b * math.pi}.get(d, 0.0)
                        exact = math.exp(l1 + l2) * np.exp(1j * (p1 - p2)) * r * ang
                        got = model.coupling[flat_index(j, k, K), flat_index(jp, kp, K)]
                        worst = max(worst, abs(got - exact))
        assert worst < 1e-13


class TestCircleCoupling:
    """The scaled block-Toeplitz circle coupling against the quadrature."""

    @pytest.mark.parametrize("b", [0.5, 2.0, 4.0])
    def test_matches_quadrature(self, b, tmp_path):
        field = MagneticField(b)
        path = tmp_path / "weight.txt"
        grid = np.linspace(0.0, 2 * math.pi, 97, endpoint=False)
        save_weight(grid, 1.5 + np.sin(grid) * np.cos(3 * grid), path)
        weights = (1.0, lambda t: 0.3 + np.cos(t) - 0.6 * np.sin(2 * t) + 0.4 * np.cos(3 * t), str(path))
        resonant = math.sqrt(2.0 * positive_zeros(2, 1.0)[0] / b)  # witness k = 3 at level 2
        for weight in weights:
            for r in (1.37, resonant):
                wc = load_weight(make_circle(r, n=256), weight)
                for Q in range(5):
                    K = model_truncation(field, Q, wc.curve)
                    fast = next(_circle_sums(field, range(Q + 1), K, wc, 256))
                    slow = next(_quadrature_sums(field, range(Q + 1), K, wc, 256))
                    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))

    def test_model_refinement_delta_matches_quadrature(self):
        wc = load_weight(make_circle(1.1, n=32), lambda t: 1.0 + np.cos(16.0 * t) + 0.2 * np.sin(3 * t))
        model = assemble_model(F2, 3, 10, wc, -1, N=32)
        coarse, fine = islice(_quadrature_sums(F2, range(4), 10, wc, 32), 2)
        assert abs(model.refinement_delta - np.max(np.abs(fine - coarse))) <= 1e-12


class TestClusterReport:
    def test_unperturbed_offsets_zero(self):
        wc = load_weight(make_circle(1.0, n=256), 0.0)
        report = cluster_report(assemble_model(F2, 2, 5, wc, +1, N=256, check_resolution=False))
        assert [c.count for c in report.clusters] == [6, 6, 6]
        assert all(c.max_offset == 0.0 for c in report.clusters)
        assert all(len(c.exact_hits) == 6 for c in report.clusters)

    def test_lowest_cluster_detaches_from_level(self):
        # Positive weight on a circle never leaves the lowest level intact.
        wc = load_weight(make_circle(1.0, n=512), 1.0)
        report = cluster_report(assemble_model(F2, 2, 8, wc, +1, N=512, check_resolution=False))
        c0 = report.level(0)
        assert c0.min_offset > 0
        assert len(c0.exact_hits) == 0
        assert all(o > 0 for o in c0.offsets)

    def test_model_the_eigenvector_solve_fails_on(self):
        # b = 2, Q = 3 on a sampled 489-node ellipse: np.linalg.eigh raises
        # LinAlgError on this 172 x 172 model, the eigenvalue-only solve does not.
        t = np.linspace(0.0, 2.0 * math.pi, 489, endpoint=False)
        a, c = 1.7161952819786195, 1.293503834881796
        pts, der = np.column_stack([a * np.cos(t), c * np.sin(t)]), np.column_stack([-a * np.sin(t), c * np.cos(t)])
        curve = JordanCurve("sampled", t, pts, der, ())
        weight = trig_weight(
            -0.3496797372145556,
            (0.4119508467873838, -0.32583795537483196, 0.19822124309726163),
            (0.24761311893849802, -0.371058962375429, 0.09961264919254231),
        )
        # An explicit K keeps this 172 x 172 model: model_truncation, which
        # honours the 1e-4 tail cutoff on every curve, gives K = 19 here.
        model = assemble_model(F2, 3, 42, load_weight(curve, weight), +1)
        assert model.matrix.shape == (172, 172)
        report = cluster_report(model)
        listed = np.concatenate([c.eigenvalues for c in report.clusters])
        assert np.array_equal(listed, np.linalg.eigvalsh(model.matrix))

    def test_json_shape(self):
        import json

        wc = load_weight(make_circle(1.0, n=256), 1.0)
        report = cluster_report(assemble_model(F2, 1, 4, wc, +1, N=256, check_resolution=False))
        payload = json.loads(report.to_json())
        assert set(payload) == {"levels"}
        assert set(payload["levels"][0]) == {
            "Lambda", "eigenvalues", "offsets", "exact_hits", "count", "min_offset", "max_offset",
        }


class TestPersistence:
    def test_resonant_circle_persists(self):
        res = persistence_check(F2, 1, 1.0, weight=1.0)
        assert res.persists
        assert res.witnesses == (1,)

    def test_nonresonant_circle_does_not(self):
        res = persistence_check(F2, 1, 1.3, weight=1.0)
        assert not res.persists
        assert res.details["sign_+"]["min_offset"] > 1e-6
        assert res.details["sign_-"]["min_offset"] > 1e-6

    def test_weight_independence(self):
        for weight in (lambda t: 5.0 + np.cos(t), 0.0):
            assert persistence_check(F2, 1, 1.0, weight=weight).persists

    def test_double_witness_radius(self):
        res = persistence_check(F2, 2, math.sqrt(2.0), weight=lambda t: 2.0 + np.sin(t))
        assert res.persists
        assert res.witnesses == (1, 4)

    def test_one_coupling_for_both_signs(self, monkeypatch):
        calls = []
        original = galerkin.assemble_model

        def counting(*args, **kwargs):
            calls.append(args[4])
            return original(*args, **kwargs)

        monkeypatch.setattr(galerkin, "assemble_model", counting)
        weight = lambda t: 2.0 + np.sin(t)
        res = persistence_check(F2, 1, 1.3, weight=weight)
        assert calls == [+1]
        K, Q = res.details["K"], res.details["Q"]
        wc = load_weight(make_circle(1.3), weight)
        for sign in (+1, -1):
            vals = np.linalg.eigvalsh(original(F2, Q, K, wc, sign, check_resolution=False).matrix)
            offset = float(np.min(np.abs(vals - F2.landau_level(1))))
            assert res.details[f"sign_{'+' if sign > 0 else '-'}"]["min_offset"] == offset

    def test_requires_positive_level(self):
        with pytest.raises(ValueError):
            persistence_check(F2, 0, 1.0)

    def test_K_below_a_witness_rejected(self):
        # sqrt(2) is a double resonance of level 2 with witnesses k = 1, 4.
        with pytest.raises(ValueError, match=r"k = 4 .* K = 3"):
            persistence_check(F2, 2, math.sqrt(2.0), K=3, weight=1.0)
        assert persistence_check(F2, 2, math.sqrt(2.0), K=4, weight=1.0).persists

    def test_bad_inputs_reported_before_a_witness_beyond_K(self):
        # One weighted circle is built first; it rejects a bad weight, N or r.
        r = math.sqrt(2.0)
        with pytest.raises(ValueError, match="one value per curve node"):
            persistence_check(F2, 2, r, K=3, weight=np.ones(5))
        with pytest.raises(ValueError, match="at least 16 nodes, got 8"):
            persistence_check(F2, 2, r, K=3, N=8)
        with pytest.raises(ValueError, match="radius must be positive"):
            persistence_check(F2, 2, -r, K=3)

    @pytest.mark.parametrize(
        "b, q, r",
        [
            (4.0, 6, 2.3700854867581373),
            (2.0, 4, 2.838651208432977),
            (2.0, 4, 2.786137744106588),
            (2.0, 4, 2.995997657309424),
            (4.0, 2, 1.4755081648258355),
        ],
    )
    def test_crowded_census_cells_persist(self, b, q, r):
        # Census cells whose eigenspace at Lambda_q is crowded by modes
        # blind to the circle; the witness columns still vanish.
        weight = trig_weight(
            -0.3772325178534954,
            (0.03893440762218692, -0.0572471710254685, 0.431017315981155),
            (-0.45948928881156537, 0.23200619565656078, 0.11437324694899664),
        )
        res = persistence_check(MagneticField(b), q, r, weight=weight)
        assert res.persists and res.witnesses
        for s in "+-":
            assert max(res.details[f"sign_{s}"]["support_residuals"]) <= galerkin.SUPPORT_TOL
            assert res.details[f"sign_{s}"]["near_count"] >= len(res.witnesses)

    def test_census_sample_persists_and_midpoints_do_not(self):
        # A seeded sample of the census cells b in {0.5, 2, 4}, q <= 6,
        # r <= 3, each under its own indefinite three-harmonic weight; the
        # radius halfway (in t) to the next census radius gives False.
        rng = np.random.default_rng(2021)
        cells = [
            (b, q, i, entries)
            for b in (0.5, 2.0, 4.0)
            for q in range(1, 7)
            for entries in [census(MagneticField(b), q, 3.0)]
            for i in range(len(entries))
        ]
        for n, pick in enumerate(rng.choice(len(cells), size=18, replace=False)):
            b, q, i, entries = cells[pick]
            field = MagneticField(b)
            weight = indefinite_weight(rng)
            res = persistence_check(field, q, entries[i].r, weight=weight)
            assert res.persists, (b, q, entries[i].r)
            assert res.witnesses == tuple(k for k, _ in entries[i].witnesses)
            if n % 3 == 0 and i + 1 < len(entries):
                r_mid = math.sqrt((entries[i].t + entries[i + 1].t) / b)
                mid = persistence_check(field, q, r_mid, weight=weight)
                assert not mid.persists and mid.witnesses == ()

    def test_radius_off_census_by_1e_10_does_not_persist(self):
        # Inside the census's 1e-9 membership tolerance, so k = 1 is still
        # named, but its coupling column is 2.6e-10 max|B|, above SUPPORT_TOL.
        res = persistence_check(F2, 1, 1.0 + 1e-10, weight=1.0)
        assert res.witnesses == (1,) and not res.persists
        assert res.details["sign_+"]["support_residuals"][0] > galerkin.SUPPORT_TOL

    def test_makes_no_eigenvector_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigenvector solver called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(toeplitz, "spectrum", refuse)
        assert persistence_check(F2, 2, math.sqrt(2.0), weight=lambda t: 2.0 + np.sin(t)).persists
        assert not persistence_check(F2, 1, 1.3, weight=1.0).persists

    def test_truncation_covers_witnesses(self):
        for q in (1, 2):
            for r in (1.0, 2.0, 2.9):
                K = model_truncation(F2, q + 2, make_circle(r))
                from landaudelta.census import multiplicity

                _, w = multiplicity(F2, q, r)
                assert all(k <= K for k, _ in w)


@pytest.mark.parametrize("call, message", [
    (lambda: assemble_model(F2, -1, 4, load_weight(make_circle(1.0, n=64), 1.0), +1), "cutoffs must be >= 0"),
    (lambda: assemble_model(F2, 2, -1, load_weight(make_circle(1.0, n=64), 1.0), +1), "cutoffs must be >= 0"),
    (lambda: persistence_check(F2, 2, 1.0, Q=1), "level cutoff Q must include the level under study"),
], ids=["negative-Q", "negative-K", "Q-below-q"])
def test_refusals_name_their_input(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()
