import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre

from landaudelta.basis import (
    BasisIndex,
    MagneticField,
    _from_parts,
    _log_factorial,
    _log_factorials,
    _parts_arrays,
    annihilation_residual,
    basis_eval,
    basis_eval_parts,
    basis_inner_product,
    basis_matrix,
    gram_rule,
    magnetic_phase,
    magnetic_translate,
    plane_gram,
    plane_inner_product,
    stacked_parts,
    translated_parts,
)
from landaudelta.laguerre import gauss_laguerre_log_rule, positive_zeros
from landaudelta.toeplitz import circle_diagonal
from landaudelta.verify import TRANSLATED_GRAM_RULE, basis_gram, translated_gram


def closed_form_phi(field, k, q, pts):
    """phi_{k,q} from scipy's Laguerre polynomials, in both prefactor forms."""
    b = field.b
    z = pts[:, 0] + 1j * pts[:, 1]
    t = 0.5 * b * np.abs(z) ** 2
    lo, hi = min(k, q), max(k, q)
    scale = math.sqrt(b / (2 * math.pi)) * math.exp(0.5 * (math.lgamma(lo + 1) - math.lgamma(hi + 1)))
    power = (math.sqrt(b / 2) * z) ** (k - q) if k >= q else (-math.sqrt(b / 2) * np.conj(z)) ** (q - k)
    return (-1j) ** q * scale * power * eval_genlaguerre(lo, hi - lo, t) * np.exp(-0.5 * t)


def hand_built(field, k, q):
    """Closed forms worked out by applying the raising operator by hand."""
    b = field.b
    c = math.sqrt(b / (2 * math.pi))

    def phi00(x):
        return c * np.exp(-b * (x[0] ** 2 + x[1] ** 2) / 4.0)

    if (k, q) == (0, 0):
        return phi00
    if (k, q) == (1, 0):
        return lambda x: c * math.sqrt(b / 2) * (x[0] + 1j * x[1]) * np.exp(-b * (x[0] ** 2 + x[1] ** 2) / 4.0)
    if (k, q) == (0, 1):
        return lambda x: 1j * c * math.sqrt(b / 2) * (x[0] - 1j * x[1]) * np.exp(-b * (x[0] ** 2 + x[1] ** 2) / 4.0)
    if (k, q) == (1, 1):
        return lambda x: -1j * c * (1.0 - b * (x[0] ** 2 + x[1] ** 2) / 2.0) * np.exp(-b * (x[0] ** 2 + x[1] ** 2) / 4.0)
    if (k, q) == (0, 2):
        return lambda x: -c / math.sqrt(2) * (b / 2) * (x[0] - 1j * x[1]) ** 2 * np.exp(-b * (x[0] ** 2 + x[1] ** 2) / 4.0)
    raise KeyError((k, q))


class TestField:
    def test_landau_levels(self):
        f = MagneticField(2.0)
        assert f.landau_level(0) == 2.0
        assert [f.landau_level(q) for q in range(4)] == [2.0, 6.0, 10.0, 14.0]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MagneticField(0.0)
        with pytest.raises(ValueError):
            MagneticField(-1.0)

    @pytest.mark.parametrize("b", (math.inf, math.nan))
    def test_rejects_non_finite(self, b):
        with pytest.raises(ValueError, match="field strength must be positive and finite"):
            MagneticField(b)

    def test_phase_values(self):
        assert magnetic_phase(MagneticField(2.0), (0.0, 0.0)) == 0.0
        assert magnetic_phase(MagneticField(2.0), (1.0, 0.0)) == 0.5
        assert magnetic_phase(MagneticField(4.0), (1.0, 1.0)) == 2.0


class TestEval:
    def test_origin_lowest_level(self):
        val = basis_eval(MagneticField(2.0), BasisIndex(0, 0), (0.0, 0.0))
        assert val == pytest.approx(math.sqrt(1 / math.pi), abs=1e-15)

    def test_origin_vanishes_above_diagonal(self):
        assert basis_eval(MagneticField(2.0), BasisIndex(3, 1), (0.0, 0.0)) == 0.0
        assert basis_eval(MagneticField(2.0), BasisIndex(0, 2), (0.0, 0.0)) == 0.0

    def test_log_factorials_past_the_table_share_one_cache_entry(self):
        # Indices past LOG_FACTORIAL_TABLE build one power-of-two table, not one per size.
        _log_factorial(0)  # the base table
        before = _log_factorials.cache_info().currsize
        for k in range(1100, 1140):
            assert math.isfinite(circle_diagonal(MagneticField(2.0), 1, k, 20.0))
        assert _log_factorials.cache_info().currsize - before <= 1
        ks = np.arange(1100, 1140)
        assert _log_factorial(ks).tolist() == [math.lgamma(k + 1) for k in ks.tolist()]

    @pytest.mark.parametrize("k,q", [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)])
    def test_matches_hand_built_closed_forms(self, k, q):
        field = MagneticField(1.7)
        ref = hand_built(field, k, q)
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.uniform(-2.0, 2.0, size=2)
            assert basis_eval(field, BasisIndex(k, q), x) == pytest.approx(ref(x), rel=1e-12, abs=1e-14)

    @given(
        radius=st.floats(0.05, 3.0),
        theta1=st.floats(0.0, 2 * math.pi),
        theta2=st.floats(0.0, 2 * math.pi),
    )
    @settings(max_examples=150, deadline=None)
    def test_modulus_is_radial(self, radius, theta1, theta2):
        field = MagneticField(2.0)
        idx = BasisIndex(4, 2)
        x1 = (radius * math.cos(theta1), radius * math.sin(theta1))
        x2 = (radius * math.cos(theta2), radius * math.sin(theta2))
        v1 = abs(basis_eval(field, idx, x1))
        v2 = abs(basis_eval(field, idx, x2))
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_log_parts_far_field(self):
        # |x|^2 = 1e4 / b and k = 200 must stay finite in log space.
        field = MagneticField(0.5)
        x = (math.sqrt(1e4 / field.b), 0.0)
        logabs, phase = basis_eval_parts(field, BasisIndex(200, 0), x)
        assert math.isfinite(logabs)
        assert math.isfinite(phase)

    def test_matrix_rows_match_pointwise(self):
        field = MagneticField(2.0)
        pts = np.random.default_rng(5).uniform(-1.5, 1.5, size=(20, 2))
        mat = basis_matrix(field, 1, range(6), pts)
        for k in range(6):
            vals = basis_eval(field, BasisIndex(k, 1), pts)
            assert np.array_equal(mat[k], vals)

    @pytest.mark.parametrize("b", [0.5, 2.0])
    def test_matrix_rows_match_scipy_closed_form(self, b):
        # Rows k < q (reflected form) and k >= q up to k = 60, the origin included.
        field = MagneticField(b)
        pts = np.vstack([[0.0, 0.0], np.random.default_rng(8).uniform(-3.0, 3.0, size=(40, 2))])
        for q in (0, 1, 3, 6):
            mat = basis_matrix(field, q, range(61), pts)
            for k in range(61):
                ref = closed_form_phi(field, k, q, pts)
                assert np.max(np.abs(mat[k] - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_nodal_circles(self):
        field = MagneticField(2.0)
        theta = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
        for q, k in ((1, 3), (2, 5), (2, 2)):
            zeros = positive_zeros(q, float(k - q)) if k >= q else positive_zeros(k, float(q - k))
            rline = np.linspace(1e-3, 8.0, 300)
            scale = np.max(np.abs(basis_eval(field, BasisIndex(k, q), np.column_stack([rline, 0 * rline]))))
            for t in zeros:
                r = math.sqrt(2 * t / field.b)
                pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
                assert np.max(np.abs(basis_eval(field, BasisIndex(k, q), pts))) < 1e-10 * scale


class TestComplexValues:
    """Values built as exp(logabs) cos(phase) + i exp(logabs) sin(phase)."""

    def test_equal_to_complex_exponential(self):
        # Reference np.exp(logabs) * np.exp(1j * phase): every value equal and
        # every nonzero one bitwise; only the sign of a zero may differ.
        field = MagneticField(2.0)
        far = math.sqrt(2.0 * 1600.0 / field.b)  # t = 1600: low rows underflow to 0
        pts = np.vstack([[0.0, 0.0], [far, 0.0], np.random.default_rng(3).uniform(-3.0, 3.0, size=(200, 2))])
        for q in (0, 1, 3, 7):
            logabs, phase = _parts_arrays(field, np.arange(201)[:, None], q, pts)
            assert np.sum(np.isneginf(logabs[:, 0])) == 200  # the origin: nodal for every k != q
            ref = np.exp(logabs) * np.exp(1j * phase)
            assert np.isfinite(logabs[0, 1]) and ref[0, 1] == 0
            got = basis_matrix(field, q, range(201), pts)
            assert np.array_equal(got, ref)
            nonzero = ref != 0
            assert got[nonzero].tobytes() == ref[nonzero].tobytes()
        for idx, x in ((BasisIndex(3, 1), (0.4, -0.7)), (BasisIndex(200, 2), (9.0, 4.0)), (BasisIndex(2, 0), (0.0, 0.0))):
            val = basis_eval(field, idx, x)
            assert type(val) is complex
            logabs, phase = basis_eval_parts(field, idx, x)
            assert val == np.exp(logabs) * np.exp(1j * phase)


class TestInnerProduct:
    def test_normalized(self):
        f = MagneticField(2.0)
        assert basis_inner_product(f, BasisIndex(2, 1), BasisIndex(2, 1)) == pytest.approx(1.0, abs=1e-9)
        f1 = MagneticField(1.0)
        assert basis_inner_product(f1, BasisIndex(0, 0), BasisIndex(0, 0)) == pytest.approx(1.0, abs=1e-10)

    def test_distinct_angular_indices_orthogonal(self):
        f = MagneticField(2.0)
        val = basis_inner_product(f, BasisIndex(2, 1), BasisIndex(5, 1))
        assert abs(val) < 1e-12

    def test_mismatched_levels_rejected(self):
        with pytest.raises(ValueError):
            basis_inner_product(MagneticField(1.0), BasisIndex(0, 0), BasisIndex(0, 1))

    @pytest.mark.parametrize("b", [0.5, 2.0])
    def test_gram_identity(self, b):
        field = MagneticField(b)
        for q in range(5):
            gram = basis_gram(field, q, 12)
            assert np.max(np.abs(gram - np.eye(13))) < 1e-13

    @pytest.mark.parametrize("k, q", [(200, 60), (200, 120), (250, 200)])
    def test_norms_past_the_old_fixed_rule(self, k, q):
        # The fixed 128-node rule was exact only up to k + q = 255: these read
        # 1 - 7.3e-12, 0.679 and 0.588.
        field = MagneticField(2.0)
        assert abs(basis_inner_product(field, BasisIndex(k, q), BasisIndex(k, q)) - 1.0) <= 1e-12

    def test_past_the_rule_limit_raises_naming_k_plus_q(self):
        assert gram_rule(723, 723) == (362, 1024)
        field = MagneticField(2.0)
        message = r"k \+ q = 724 needs a 363-node Gauss-Laguerre rule"
        with pytest.raises(ValueError, match=message):
            gram_rule(724, 0)
        with pytest.raises(ValueError, match=message):
            basis_inner_product(field, BasisIndex(600, 124), BasisIndex(0, 124))


class TestGramRule:
    def test_sizes_from_degree_and_angular_spread(self):
        # n = ceil((k + q + 1)/2); A the least power of two > max |k - k'|.
        cases = {(0, 0): (1, 1), (1, 1): (1, 2), (2, 2): (2, 4), (12, 12): (7, 16), (16, 12): (9, 16),
                 (255, 0): (128, 1), (256, 255): (129, 256), (256, 256): (129, 512)}
        for (kq, dk), rule in cases.items():
            assert gram_rule(kq, dk) == rule

    @pytest.mark.parametrize("b, bound", [(2.0, 1e-13), (0.5, 2e-13)])
    def test_translated_rule_survives_doubling(self, b, bound):
        # Translates are not band-limited: their rule is measured, not derived.
        # Doubling both sizes moved entries by at most 7.7e-14 (b = 2, the
        # verify case) and 1.5e-13 (b = 0.5).
        field = MagneticField(b)
        radial, angular = TRANSLATED_GRAM_RULE
        y = (0.5, -1.2)
        for q in range(5):
            fine = plane_gram(field, stacked_parts(field, q, range(5), y), (2 * radial, 2 * angular))
            assert np.max(np.abs(translated_gram(field, q, 4, y) - fine)) <= bound


def looped_gram(field, parts, rule):
    """Reference Gram: plane_gram's quadrature on rule with each one-function parts callable evaluated on its own."""
    radial, angular = rule
    t, logw = gauss_laguerre_log_rule(radial, 0.0)
    half_logw = 0.5 * (logw + t)
    r = np.sqrt(2.0 * t / field.b)
    theta = np.linspace(0.0, 2.0 * math.pi, angular, endpoint=False)
    pts = np.empty((radial, angular, 2))
    pts[..., 0] = r[:, None] * np.cos(theta)[None, :]
    pts[..., 1] = r[:, None] * np.sin(theta)[None, :]
    phi = np.empty((len(parts), radial * angular), dtype=complex)
    for i, f in enumerate(parts):
        la, ph = f(pts)
        phi[i] = _from_parts(la + half_logw[:, None], ph).ravel()
    return (phi @ phi.conj().T) * (2.0 * math.pi / angular) / field.b


def twisted_parts(field, idx, y):
    """Reference T_y phi_{k,q}: one basis function at x - y, phase twisted by -(b/2) x^y."""
    y = np.asarray(y, dtype=float)

    def parts(pts):
        la, ph = basis_eval_parts(field, idx, pts - y)
        return la, ph - 0.5 * field.b * (pts[..., 0] * y[1] - pts[..., 1] * y[0])

    return parts


class TestStackedGram:
    """One broadcast evaluation gives the per-function Gram bit for bit."""

    @pytest.mark.parametrize("b", [0.5, 2.0])
    def test_basis_gram_matches_loop(self, b):
        field = MagneticField(b)
        for q in range(5):
            parts = [lambda p, k=k: basis_eval_parts(field, BasisIndex(k, q), p) for k in range(13)]
            ref = looped_gram(field, parts, gram_rule(12 + q, 12))
            assert np.array_equal(basis_gram(field, q, 12), ref)

    @pytest.mark.parametrize("b", [0.5, 2.0])
    def test_translated_gram_matches_loop(self, b):
        field = MagneticField(b)
        y = (0.5, -1.2)
        for q in range(5):
            parts = [twisted_parts(field, BasisIndex(k, q), y) for k in range(5)]
            ref = looped_gram(field, parts, TRANSLATED_GRAM_RULE)
            assert np.array_equal(translated_gram(field, q, 4, y), ref)

    def test_rows_and_one_row_case(self):
        field = MagneticField(2.0)
        y = np.array([0.5, -1.2])
        pts = np.random.default_rng(4).uniform(-2, 2, size=(3, 7, 2))
        for q in (0, 3):
            for shift in (None, y):
                la, ph = stacked_parts(field, q, [0, 2, 5], shift)(pts)
                assert la.shape == ph.shape == (3, 3, 7)
                for row, k in enumerate((0, 2, 5)):
                    if shift is None:
                        ref = basis_eval_parts(field, BasisIndex(k, q), pts)
                    else:
                        ref = translated_parts(field, BasisIndex(k, q), shift)(pts)
                        twisted = twisted_parts(field, BasisIndex(k, q), shift)(pts)
                        assert all(np.array_equal(a, b) for a, b in zip(ref, twisted))
                    assert np.array_equal(la[row], ref[0]) and np.array_equal(ph[row], ref[1])


class TestAnnihilation:
    def test_contract_examples(self):
        f2 = MagneticField(2.0)
        assert annihilation_residual(f2, BasisIndex(0, 0), np.array([0.3, -0.7])) <= 1e-6
        assert annihilation_residual(f2, BasisIndex(4, 0), np.array([1.0, 1.0])) <= 1e-6
        f1 = MagneticField(1.0)
        assert annihilation_residual(f1, BasisIndex(0, 0), np.array([0.0, 0.0])) <= 1e-10

    def test_contract_envelope(self):
        rng = np.random.default_rng(9)
        for b in (1.0, 4.0):
            field = MagneticField(b)
            for k in (1, 3, 6, 10):
                x = rng.uniform(-3.0, 3.0, size=2) / math.sqrt(2)
                assert annihilation_residual(field, BasisIndex(k, 0), x) <= 1e-6

    def test_higher_level_rejected(self):
        with pytest.raises(ValueError):
            annihilation_residual(MagneticField(1.0), BasisIndex(0, 1), np.array([0.1, 0.2]))


class TestTranslation:
    def test_identity_translation(self):
        field = MagneticField(2.0)
        f = lambda pts: basis_eval(field, BasisIndex(2, 1), pts)
        pts = np.random.default_rng(1).uniform(-1, 1, size=(10, 2))
        assert np.allclose(magnetic_translate(field, (0.0, 0.0), f, pts), f(pts), rtol=0, atol=0)

    @given(
        y1=st.floats(-2.0, 2.0),
        y2=st.floats(-2.0, 2.0),
        x1=st.floats(-2.0, 2.0),
        x2=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_unimodular_phase(self, y1, y2, x1, x2):
        field = MagneticField(2.0)
        f = lambda pts: basis_eval(field, BasisIndex(1, 1), pts)
        x = np.array([x1, x2])
        y = np.array([y1, y2])
        assert abs(magnetic_translate(field, y, f, x)) == pytest.approx(abs(f(x - y)), rel=1e-13)

    def test_translated_parts_consistent_with_direct(self):
        field = MagneticField(2.0)
        idx = BasisIndex(3, 1)
        y = np.array([0.5, -1.2])
        pts = np.random.default_rng(4).uniform(-2, 2, size=(30, 2))
        la, ph = translated_parts(field, idx, y)(pts)
        direct = magnetic_translate(field, y, lambda p: basis_eval(field, idx, p), pts)
        assert np.allclose(np.exp(la) * np.exp(1j * ph), direct, rtol=1e-12, atol=1e-15)

    def test_inner_products_preserved(self):
        field = MagneticField(2.0)
        y = (0.5, -1.2)
        for q in range(5):
            gram = translated_gram(field, q, 4, y)
            assert np.max(np.abs(gram - np.eye(5))) < 1e-13

    def test_plane_inner_product_matches_basis_route(self):
        field = MagneticField(2.0)
        idx = BasisIndex(2, 2)
        parts = translated_parts(field, idx, (0.0, 0.0))
        val = plane_inner_product(field, parts, parts, gram_rule(4, 0))
        assert val == pytest.approx(basis_inner_product(field, idx, idx), rel=1e-10)


@pytest.mark.parametrize("call, message", [
    (lambda: MagneticField(2.0).landau_level(-1), "level index must be >= 0"),
    (lambda: BasisIndex(-1, 0), "indices must be >= 0, got k=-1, q=0"),
    (lambda: BasisIndex(0, -2), "indices must be >= 0, got k=0, q=-2"),
    (lambda: basis_eval(MagneticField(2.0), BasisIndex(1, 0), [0.1, 0.2, 0.3]),
     "points must have a trailing axis of size 2, got shape (3,)"),
    (lambda: basis_matrix(MagneticField(2.0), 0, range(3), [0.1, 0.2]), "basis_matrix expects an (N, 2) array of points"),
    (lambda: annihilation_residual(MagneticField(2.0), BasisIndex(1, 0), np.zeros((3, 2))),
     "annihilation_residual expects a single point"),
], ids=["negative-level", "negative-k", "negative-q", "trailing-axis", "matrix-points", "several-points"])
def test_refusals_name_their_input(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()
