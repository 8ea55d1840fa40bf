import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_genlaguerre

from landaudelta.laguerre import (
    LaguerreSpec,
    gauss_laguerre_rule,
    laguerre_derivative,
    laguerre_eval,
    laguerre_zeros,
    magnitude_envelope,
    nodal_zeros,
    orthogonality_defect,
    positive_zeros,
)
import landaudelta.laguerre as laguerre_mod
from landaudelta.verify import reflection_defect


def explicit_degree1(alpha, t):
    return -t + alpha + 1.0


def explicit_degree2(alpha, t):
    return 0.5 * (t * t - 2.0 * (alpha + 2.0) * t + (alpha + 2.0) * (alpha + 1.0))


class TestEval:
    def test_degree_zero_is_one(self):
        assert laguerre_eval(LaguerreSpec(0, 3.7), 11.0) == 1.0

    def test_degree_one_zero_at_alpha_plus_one(self):
        assert laguerre_eval(LaguerreSpec(1, 2.0), 3.0) == 0.0

    def test_degree_two_frozen_value(self):
        # 0.5 * (4 - 8 + 2) = -1
        assert laguerre_eval(LaguerreSpec(2, 0.0), 2.0) == pytest.approx(-1.0, abs=1e-15)

    @given(
        alpha=st.floats(-3.0, 8.0),
        t=st.floats(0.0, 40.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_closed_forms(self, alpha, t):
        assert laguerre_eval(LaguerreSpec(1, alpha), t) == pytest.approx(
            explicit_degree1(alpha, t), rel=1e-12, abs=1e-12
        )
        assert laguerre_eval(LaguerreSpec(2, alpha), t) == pytest.approx(
            explicit_degree2(alpha, t), rel=1e-12, abs=1e-11
        )

    def test_vectorized_matches_scalar(self):
        spec = LaguerreSpec(5, 0.3)
        t = np.linspace(0.0, 25.0, 11)
        vec = laguerre_eval(spec, t)
        assert vec.shape == t.shape
        for ti, vi in zip(t, vec):
            assert laguerre_eval(spec, float(ti)) == vi

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            LaguerreSpec(-1, 0.0)


class TestDerivative:
    def test_frozen_values(self):
        assert laguerre_derivative(LaguerreSpec(1, 0.0), 5.0) == -1.0
        # -L_1^(1)(0) = -(0 + 1 + 1)
        assert laguerre_derivative(LaguerreSpec(2, 0.0), 0.0) == -2.0

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            laguerre_derivative(LaguerreSpec(0, 1.0), 1.0)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(100):
            q = int(rng.integers(1, 11))
            alpha = float(rng.uniform(-0.9, 5.0))
            t = float(rng.uniform(0.0, 40.0))
            spec = LaguerreSpec(q, alpha)
            fd = (laguerre_eval(spec, t + h) - laguerre_eval(spec, t - h)) / (2 * h)
            scale = max(1.0, abs(fd))
            assert abs(laguerre_derivative(spec, t) - fd) <= 1e-8 * scale


class TestZeros:
    def test_degree_zero_empty(self):
        assert laguerre_zeros(LaguerreSpec(0, 0.3)) == []
        assert laguerre_zeros(LaguerreSpec(0, -17.0)) == []

    @pytest.mark.parametrize("k", range(1, 9))
    def test_degree_one_negative_parameter(self, k):
        zeros = laguerre_zeros(LaguerreSpec(1, float(k - 1)))
        assert len(zeros) == 1
        z, m = zeros[0]
        assert m == 1
        assert z == pytest.approx(float(k), rel=1e-14)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_degree_two_zeros_k_pm_sqrt_k(self, k):
        zeros = laguerre_zeros(LaguerreSpec(2, float(k - 2)))
        expected = sorted(z for z in (k - math.sqrt(k), k + math.sqrt(k)) if z > 0)
        got = [z for z, _ in zeros if z > 0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_null_root_multiplicities(self):
        assert laguerre_zeros(LaguerreSpec(3, -3.0)) == [(0.0, 3)]
        zs = laguerre_zeros(LaguerreSpec(4, -2.0))
        assert zs[0] == (0.0, 2)
        assert len(zs) == 3  # null root plus the two positive zeros of L_2^(2)

    def test_positive_parameter_counts(self):
        for q in range(1, 9):
            for alpha in (-0.5, 0.0, 2.3):
                zeros = laguerre_zeros(LaguerreSpec(q, alpha))
                assert len(zeros) == q
                assert all(m == 1 for _, m in zeros)
                vals = [z for z, _ in zeros]
                assert all(z > 0 for z in vals)
                assert vals == sorted(vals)

    def test_inadmissible_parameter_rejected(self):
        with pytest.raises(ValueError):
            laguerre_zeros(LaguerreSpec(2, -1.5))
        with pytest.raises(ValueError):
            laguerre_zeros(LaguerreSpec(2, -3.0))

    def test_residual_and_sign_alternation(self):
        for q in range(1, 9):
            for alpha in (-0.5, 0.0, 1.5, 6.0):
                spec = LaguerreSpec(q, alpha)
                zeros = positive_zeros(q, alpha)
                resid = np.abs(laguerre_eval(spec, zeros))
                scale = np.abs(laguerre_derivative(spec, zeros)) * np.maximum(zeros, 1.0)
                assert np.all(resid <= 1e-10 * scale)
                if q > 1:
                    mids = 0.5 * (zeros[1:] + zeros[:-1])
                    signs = np.sign(laguerre_eval(spec, mids))
                    assert np.all(signs[1:] != signs[:-1])

    def test_membership_tolerance_roundtrip(self):
        # A zero perturbed within relative 1e-9 must still match itself.
        z = positive_zeros(5, 1.2)
        assert np.all(np.abs(laguerre_eval(LaguerreSpec(5, 1.2), z)) < 1e-9)


class TestInterlacing:
    def test_zero_ladder_interlaces(self):
        for q in range(2, 9):
            for k in range(2, q + 1):

                def zdesc(kk):
                    zs = [z for z, _ in laguerre_zeros(LaguerreSpec(q, float(kk - q))) if z > 0]
                    return sorted(zs, reverse=True)

                upper = zdesc(k)
                lower = zdesc(k - 1)
                for m in range(len(lower)):
                    assert upper[m + 1] < lower[m] < upper[m]

    def test_zeros_increase_with_parameter(self):
        grid = np.arange(-0.5, 20.5, 0.5)
        for q in range(1, 9):
            table = positive_zeros(q, grid)
            assert np.all(np.diff(table, axis=0) > 0)


STACK_ALPHAS = np.concatenate([np.linspace(-0.5, 12.0, 26), [0.0, 1e-9, 63.0, 64.0, 150.5, 333.0, 700.0]])


class TestStackedZeros:
    def test_rows_equal_scalar_calls(self):
        for q in range(0, 17):
            rows = positive_zeros(q, STACK_ALPHAS)
            assert rows.shape == (STACK_ALPHAS.size, q)
            for a, row in zip(STACK_ALPHAS, rows):
                assert np.array_equal(row, positive_zeros(q, float(a)))

    def test_rows_match_scipy(self):
        for q in range(1, 17):
            rows = positive_zeros(q, STACK_ALPHAS)
            for a, row in zip(STACK_ALPHAS, rows):
                ref = roots_genlaguerre(q, a)[0]
                assert np.max(np.abs(row - ref) / ref) <= 1e-12

    def test_shapes_and_validation(self):
        assert positive_zeros(3, 1.0).shape == (3,)
        assert positive_zeros(3, np.float64(1.0)).shape == (3,)
        assert positive_zeros(3, [1.0]).shape == (1, 3)
        assert positive_zeros(0, [0.5, 2.0]).shape == (2, 0)
        with pytest.raises(ValueError):
            positive_zeros(3, [0.5, -1.0])

    def test_degree_400_stays_finite(self):
        # The recurrence overflows here, so the Newton step is not finite for
        # some zeros; those keep their Jacobi eigenvalue.  scipy's
        # roots_genlaguerre(400, 0) returns NaNs and cannot be the reference.
        q = 400
        i = np.arange(q)
        jacobi = np.diag(2.0 * i + 1.0) + np.diag(np.sqrt(i[1:] * i[1:].astype(float)), -1)
        eig = np.linalg.eigvalsh(jacobi)
        z = positive_zeros(q, 0.0)
        assert np.all(np.isfinite(z))
        assert np.all(np.diff(z) > 0)
        # Absolute floor 1e-14: the smallest eigenvalue (3.6e-3) is itself off
        # by 1.05e-12 relative, and the Newton step moves it to the root.
        np.testing.assert_allclose(z, eig, rtol=1e-12, atol=1e-14)
        # That root to 20 digits, from 40-digit mpmath root finding.
        assert abs(z[0] - 0.0036099805272481904860) <= 1e-13 * z[0]


class TestReflection:
    @given(
        q=st.integers(2, 8),
        k_offset=st.integers(1, 7),
        t=st.floats(1e-3, 30.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_identity_within_envelope_scale(self, q, k_offset, t):
        k = min(k_offset, q - 1)
        assert float(reflection_defect(q, k, np.asarray([t]))[0]) < 1e-10

    def test_envelope_dominates_value(self):
        spec = LaguerreSpec(7, -3.0)
        t = np.linspace(0.01, 30.0, 100)
        assert np.all(magnitude_envelope(spec, t) >= np.abs(laguerre_eval(spec, t)))


class TestNodalZeros:
    """The one reflection: zeros of L_q^(k-q) are those of L_min(k,q)^(|k-q|)."""

    def test_matches_positive_zeros_bitwise(self):
        for q in range(9):
            for k in range(13):
                got = nodal_zeros(q, k)
                if k >= q:
                    ref = positive_zeros(q, float(k - q))
                elif k > 0:
                    ref = positive_zeros(k, float(q - k))
                else:
                    ref = np.empty(0)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (q, k)

    def test_index_zero_makes_no_solve(self, monkeypatch):
        def refuse(q, alpha):
            raise AssertionError("k = 0 must not solve")

        monkeypatch.setattr(laguerre_mod, "positive_zeros", refuse)
        for q in range(1, 9):
            assert nodal_zeros(q, 0).shape == (0,)

    def test_index_array_stacks_rows(self):
        for q in (1, 3, 8):
            ks = np.arange(q, q + 20)
            rows = nodal_zeros(q, ks)
            assert rows.shape == (20, q)
            for k, row in zip(ks.tolist(), rows):
                assert row.tobytes() == nodal_zeros(q, k).tobytes()

    def test_index_array_below_q_names_the_first_such_k(self):
        # The scalar door reflects k < q; an array of indices must hold k >= q only.
        for ks, first in (([1, 2, 3], 1), ([4, 3, 2, 0], 2), ([[3, 5], [0, 4]], 0)):
            with pytest.raises(ValueError, match=rf"^an array of angular indices needs every k >= q = 3, got k = {first}$"):
                nodal_zeros(3, np.array(ks))

    def test_laguerre_zeros_reads_the_reflection(self):
        for q in range(1, 9):
            for k in range(q):
                zeros = laguerre_zeros(LaguerreSpec(q, float(k - q)))
                assert zeros[0] == (0.0, q - k)
                assert [z for z, _ in zeros[1:]] == nodal_zeros(q, k).tolist()


class TestOrthogonality:
    def test_frozen_examples(self):
        assert orthogonality_defect(1, 1, 0.0) < 1e-10
        assert orthogonality_defect(3, 5, 0.5) < 1e-10
        assert orthogonality_defect(0, 0, 0.0) < 1e-12

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            orthogonality_defect(1, 1, -1.0)

    def test_rejects_negative_degrees(self):
        for q, p in ((-1, 2), (3, [0, -2])):
            with pytest.raises(ValueError, match="degree must be >= 0, got -"):
                orthogonality_defect(q, p, 0.0)

    @staticmethod
    def looped_defect(q, p, alpha):
        """Reference: one rule and two scalar recurrences per pair, the target from its closed form."""
        t, w = gauss_laguerre_rule(math.ceil((q + p) / 2) + 1, alpha)
        integral = float(np.sum(w * laguerre_eval(LaguerreSpec(q, alpha), t) * laguerre_eval(LaguerreSpec(p, alpha), t)))
        if q != p:
            return abs(integral)
        if alpha == round(alpha):
            return abs(integral - float(math.factorial(q + round(alpha)) // math.factorial(q)))
        return abs(integral - math.exp(math.lgamma(q + alpha + 1) - math.lgamma(q + 1)))

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 3.0])
    def test_arrays_equal_scalar_calls_bitwise(self, alpha):
        # The 3 x 91 (q, p, alpha) of verify's laguerre-orthogonality check, against one scalar call
        # and one looped reference each.
        q, p = np.triu_indices(13)
        got = orthogonality_defect(q, p, alpha)
        assert got.shape == (91,) and got.dtype == np.float64
        pairs = list(zip(q.tolist(), p.tolist()))
        scalar = [orthogonality_defect(qi, pi, alpha) for qi, pi in pairs]
        assert all(type(d) is float for d in scalar)
        assert got.tobytes() == np.array(scalar).tobytes()
        assert scalar == [self.looped_defect(qi, pi, alpha) for qi, pi in pairs]

    def test_arrays_broadcast(self):
        q = np.arange(5)[:, None]
        got = orthogonality_defect(q, np.arange(7), 0.5)
        assert got.shape == (5, 7)
        assert got[3, 6] == orthogonality_defect(3, 6, 0.5)
        assert orthogonality_defect([], [], 0.0).shape == (0,)

    def test_rule_integrates_monomials(self):
        t, w = gauss_laguerre_rule(8, 0.0)
        # int_0^inf e^-t t^m dt = m!
        for m in range(0, 16):
            assert np.sum(w * t**m) == pytest.approx(math.factorial(m), rel=1e-12)

    def test_rule_with_weight_parameter(self):
        alpha = 0.5
        t, w = gauss_laguerre_rule(6, alpha)
        for m in range(0, 12):
            assert np.sum(w * t**m) == pytest.approx(math.gamma(m + alpha + 1), rel=1e-12)


class TestRuleCache:
    def test_cached_rule_is_a_read_only_fresh_build(self):
        laguerre_mod._log_rule.cache_clear()
        for n, alpha in ((1, 0.0), (7, 0.5), (128, 0.0)):
            first = laguerre_mod.gauss_laguerre_log_rule(n, alpha)
            fresh = laguerre_mod._log_rule.__wrapped__(n, float(alpha))
            assert all(np.array_equal(a, b) for a, b in zip(first, fresh))
            assert laguerre_mod.gauss_laguerre_log_rule(n, alpha) is first
            for arr in first:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1.0
        assert laguerre_mod.gauss_laguerre_log_rule(7, 0) is laguerre_mod.gauss_laguerre_log_rule(7, 0.0)

    def test_cache_clear_empties_the_rules(self):
        rule = laguerre_mod.gauss_laguerre_log_rule(6, 3.0)
        assert laguerre_mod._log_rule.cache_info().currsize > 0
        laguerre_mod._log_rule.cache_clear()
        assert laguerre_mod._log_rule.cache_info().currsize == 0
        again = laguerre_mod.gauss_laguerre_log_rule(6, 3.0)
        assert again is not rule and all(np.array_equal(a, b) for a, b in zip(again, rule))

    def test_largest_rule_has_finite_weights(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, logw = laguerre_mod.gauss_laguerre_log_rule(laguerre_mod.MAX_RULE_NODES, 0.0)
        assert np.isfinite(logw).all()
        assert abs(np.sum(np.exp(logw)) - 1.0) < 1e-10

    @pytest.mark.parametrize("n, alpha", [(363, 0.0), (400, 0.0), (600, 0.0), (356, 50.0)])
    def test_rules_past_the_double_range_raise_naming_n(self, n, alpha):
        # These used to return NaN log-weights with two numpy warnings; at
        # alpha = 50 the weights overflow below MAX_RULE_NODES.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"rule with n = {n} nodes"):
                laguerre_mod.gauss_laguerre_log_rule(n, alpha)
            assert np.isfinite(laguerre_mod.gauss_laguerre_log_rule(355, 50.0)[1]).all()

    def test_bad_arguments_are_rejected_before_the_cache(self):
        for n, alpha in ((0, 0.0), (4, -1.0)):
            with pytest.raises(ValueError):
                laguerre_mod.gauss_laguerre_log_rule(n, alpha)
