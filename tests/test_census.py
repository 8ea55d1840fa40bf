import importlib
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landaudelta.basis import MagneticField
from landaudelta.census import (
    CensusEntry,
    census,
    census_to_csv,
    coupling_lower_bounds,
    eta_curve,
    eta_table_to_csv,
    explicit_D12,
    gap_constants,
    multiplicity,
)

from landaudelta.laguerre import ZERO_MEMBERSHIP_RTOL, positive_zeros

census_mod = importlib.import_module("landaudelta.census")
laguerre_mod = importlib.import_module("landaudelta.laguerre")

F2 = MagneticField(2.0)


@lru_cache(maxsize=None)
def scalar_zeros(q: int, k: int) -> np.ndarray:
    """Positive zeros of L_q^(k-q), ascending, one scalar solve per k."""
    if k >= q:
        return positive_zeros(q, float(k - q))
    if k == 0:
        return np.empty(0)
    return positive_zeros(k, float(q - k))


def per_k_zero_table(q: int, t_cap: float):
    """Reference: sweep k one solve at a time, up to the first k >= q whose smallest zero passes the cap."""
    ts, ks = [], []
    k = 0
    while True:
        zeros = scalar_zeros(q, k)
        if k >= q and zeros.size and zeros[0] > t_cap * (1.0 + ZERO_MEMBERSHIP_RTOL):
            break
        for z in zeros:
            if z <= t_cap * (1.0 + ZERO_MEMBERSHIP_RTOL):
                ts.append(float(z))
                ks.append(k)
        k += 1
    order = np.argsort(ts)
    return np.asarray(ts)[order], np.asarray(ks, dtype=int)[order]


def recursive_zeta(q: int, ell: int, alpha: float) -> float:
    """Reference: ell-th largest zero of L_q^(alpha), interpolated below 0 one curve cell at a time."""
    if alpha >= 0:
        return float(positive_zeros(q, alpha)[q - ell])
    if abs(alpha - round(alpha)) <= 1e-12:
        return float(scalar_zeros(q, q + round(alpha))[::-1][ell - 1])
    n_hi = math.floor(alpha)
    z_lo = recursive_zeta(q, ell, float(n_hi))
    z_hi = recursive_zeta(q, ell, float(n_hi + 1)) if n_hi + 1 < 0 else float(positive_zeros(q, 0.0)[q - ell])
    return z_lo + (alpha - n_hi) * (z_hi - z_lo)


class TestMultiplicity:
    def test_simple_resonance(self):
        m, w = multiplicity(F2, 1, 1.0)
        assert m == 1
        assert [k for k, _ in w] == [1]

    def test_double_resonance(self):
        m, w = multiplicity(F2, 2, math.sqrt(2.0))
        assert m == 2
        assert sorted(k for k, _ in w) == [1, 4]
        assert all(z == pytest.approx(2.0, rel=1e-12) for _, z in w)

    def test_nonresonant(self):
        m, w = multiplicity(F2, 1, math.sqrt(0.5))
        assert m == 0 and w == []

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            multiplicity(F2, 0, 1.0)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            multiplicity(F2, 1, 0.0)

    @given(r=st.floats(0.01, 4.0), q=st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_bounded_by_level(self, r, q):
        m, w = multiplicity(F2, q, r)
        assert 0 <= m <= q
        assert len(w) == m


class TestCensus:
    def test_membership_rule_groups_zeros_that_differ_in_the_last_bits(self):
        # At b = 2, q = 18 the zeros for k = 515 and k = 629 agree to 3e-10 relative, not
        # bitwise; every coincidence at smaller t is bitwise, so this pins the tolerance.
        entries = [e for e in census(F2, 18, 22.05) if e.multiplicity > 1]
        assert [[k for k, _ in e.witnesses] for e in entries] == [[515, 629]]
        (_, t1), (_, t2) = entries[0].witnesses
        assert t1 != t2 and abs(t1 - t2) <= ZERO_MEMBERSHIP_RTOL * max(t1, t2)
        assert multiplicity(F2, 18, entries[0].r) == (2, list(entries[0].witnesses))

    def test_level_one_integers(self):
        entries = census(F2, 1, 3.0)
        assert [e.t for e in entries] == pytest.approx(list(range(1, 10)), rel=1e-14)
        assert [e.r for e in entries] == pytest.approx([math.sqrt(n) for n in range(1, 10)], rel=1e-14)
        assert all(e.multiplicity == 1 for e in entries)

    def test_level_two_short_sweep(self):
        entries = census(F2, 2, 1.5)
        expected = [
            (2.0 - math.sqrt(2.0), 1, (2,)),
            (3.0 - math.sqrt(3.0), 1, (3,)),
            (2.0, 2, (1, 4)),
        ]
        assert len(entries) == 3
        for e, (t, m, ks) in zip(entries, expected):
            assert e.t == pytest.approx(t, rel=1e-12)
            assert e.multiplicity == m
            assert tuple(k for k, _ in e.witnesses) == ks

    def test_strictly_increasing(self):
        for q in (1, 2, 3, 4):
            rs = [e.r for e in census(F2, q, 3.5)]
            assert all(a < b for a, b in zip(rs, rs[1:]))

    def test_grows_without_bound(self):
        assert len(census(F2, 1, math.sqrt(20.0))) == 20

    def test_entry_invariant(self):
        with pytest.raises(ValueError):
            CensusEntry(1.0, 1.0, 2, ((1, 1.0),))

    def test_csv_format(self):
        text = census_to_csv(census(F2, 2, 1.5))
        lines = text.strip().splitlines()
        assert lines[0] == "r,t,multiplicity,witness_ks"
        assert lines[3].endswith(",2,1;4")


class TestExplicitSets:
    def test_level_one_first_three(self):
        sets = explicit_D12(F2, 3)
        assert sets["D1"] == pytest.approx([1.0, math.sqrt(2), math.sqrt(3)], rel=1e-15)

    def test_first_double_radius(self):
        assert explicit_D12(F2, 3)["D22"][0] == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_strong_field_scaling(self):
        assert explicit_D12(MagneticField(8.0), 1)["D1"][0] == pytest.approx(0.5, rel=1e-15)

    def test_d21_excludes_doubles(self):
        sets = explicit_D12(F2, 30)
        for r in sets["D21"]:
            assert all(abs(r - d) > 1e-9 * max(r, d) for d in sets["D22"])

    @pytest.mark.parametrize("b,q,key", [(0.5, 1, "D1"), (2.0, 1, "D1"), (0.5, 2, "D2"), (2.0, 2, "D2")])
    def test_census_cross_validation(self, b, q, key):
        field = MagneticField(b)
        r_max = 4.0
        swept = np.array([e.r for e in census(field, q, r_max)])
        closed = np.array([r for r in explicit_D12(field, 60)[key] if r <= r_max * (1 + 1e-12)])
        assert swept.size == closed.size
        assert np.max(np.abs(swept - closed) / closed) < 1e-10

    def test_multiplicities_match_closed_form(self):
        sets = explicit_D12(F2, 10)
        for e in census(F2, 2, 4.0):
            is_double = any(abs(e.r - d) <= 1e-9 * max(e.r, d) for d in sets["D22"])
            assert e.multiplicity == (2 if is_double else 1)

    @pytest.mark.parametrize(
        "b,n_max", [(0.5, 260000), (1.3, 3000), (2.0, 20000), (4.0, 300000), (4.0, 3), (4.0, 1), (0.5, 250000)]
    )
    def test_sets_equal_loop_reference(self, b, n_max):
        n = np.arange(1, n_max + 1, dtype=float)
        d2 = np.unique(np.sqrt(2.0 * np.concatenate([(n + 1) - np.sqrt(n + 1), n + np.sqrt(n)]) / b))
        d22 = np.sqrt(2.0 * (n * n + n) / b)
        sets = explicit_D12(MagneticField(b), n_max)
        assert np.array(sets["D2"]).tobytes() == d2.tobytes()
        assert np.array(sets["D22"]).tobytes() == d22.tobytes()
        d21 = np.array(sets["D21"])
        assert d21.tobytes() == d2[~np.isin(d2, d22)].tobytes()
        assert d2.size - d21.size == math.isqrt(n_max)  # one double per square
        if n_max > 250000:
            # Distinct radii lie within 1e-9 of each other from n_max ~ 251,000 on; all are kept.
            assert np.min(np.diff(d2) / d2[1:]) < ZERO_MEMBERSHIP_RTOL
            return
        # Below that, explicit_D12 as it was written with loops and a tolerance: the D2 merge
        # compares with the last kept radius, and D22 membership tests every double radius in
        # range.  The tolerance changes nothing there.
        merged = [d2[0]]
        for r in d2[1:].tolist():
            if abs(r - merged[-1]) > ZERO_MEMBERSHIP_RTOL * max(r, merged[-1]):
                merged.append(r)
        merged = np.array(merged)
        is_double = np.zeros(merged.size, dtype=bool)
        for d in d22[d22 <= 2.0 * merged[-1]]:  # a window 1000x the tolerance holds every close radius
            lo, hi = np.searchsorted(merged, [d * (1 - 1e-6), d * (1 + 1e-6)])
            window = merged[lo:hi]
            is_double[lo:hi] |= np.abs(d - window) <= ZERO_MEMBERSHIP_RTOL * np.maximum(d, window)
        assert merged.tobytes() == d2.tobytes()
        assert merged[~is_double].tobytes() == d21.tobytes()

    def test_close_distinct_radii_both_kept(self):
        # Upper n = 250,500 and lower n = 251,501: t = 251000.4998 and 251000.5002,
        # radii a relative 9.9e-10 apart, inside the census tolerance yet distinct.
        upper = math.sqrt(250500 + math.sqrt(250500))
        lower = math.sqrt(251502 - math.sqrt(251502))
        assert 0 < (lower - upper) / lower < ZERO_MEMBERSHIP_RTOL
        sets = explicit_D12(F2, 260000)
        for key in ("D2", "D21"):
            i = np.searchsorted(sets[key], upper)
            assert sets[key][i : i + 2] == [upper, lower]


class TestEtaCurves:
    def test_level_one_integer_points(self):
        for b in (0.5, 2.0):
            field = MagneticField(b)
            for k in range(1, 8):
                assert eta_curve(field, 1, 1, float(k - 1)) == pytest.approx(math.sqrt(2 * k / b), rel=1e-13)

    def test_level_two_top_curve_at_zero(self):
        assert eta_curve(F2, 2, 1, 0.0) == pytest.approx(math.sqrt(2 + math.sqrt(2)), rel=1e-13)

    def test_negative_integer_reduction(self):
        # zeta_1(-1) for the quadratic level is the zero of L_1^(1), i.e. 2.
        assert eta_curve(F2, 2, 1, -1.0) == pytest.approx(math.sqrt(2.0), rel=1e-13)

    def test_linear_interpolation_midpoint(self):
        lo = eta_curve(F2, 2, 1, -1.0) ** 2
        hi = eta_curve(F2, 2, 1, 0.0) ** 2
        mid = eta_curve(F2, 2, 1, -0.5) ** 2
        assert mid == pytest.approx(0.5 * (lo + hi), rel=1e-12)

    def test_domain_edges(self):
        assert eta_curve(F2, 3, 1, -2.0) > 0
        with pytest.raises(ValueError):
            eta_curve(F2, 2, 2, -1.0)
        with pytest.raises(ValueError):
            eta_curve(F2, 2, 3, 0.0)

    def test_ordering_and_monotonicity(self):
        for q in (2, 3, 4):
            for ell in range(1, q + 1):
                grid = np.arange(float(ell - q), 10.0, 0.5)
                vals = [eta_curve(F2, q, ell, float(a)) for a in grid]
                assert all(a < b for a, b in zip(vals, vals[1:]))
            for ell in range(1, q):
                grid = np.arange(float(ell + 1 - q), 10.0, 0.5)
                hi = [eta_curve(F2, q, ell, float(a)) for a in grid]
                lo = [eta_curve(F2, q, ell + 1, float(a)) for a in grid]
                assert all(x < y for x, y in zip(lo, hi))

    def test_table_export(self):
        text = eta_table_to_csv(F2, 2, [-1.0, 0.0, 1.0])
        lines = text.strip().splitlines()
        assert lines[0] == "alpha,eta_1,eta_2"
        assert lines[1].split(",")[2] == "nan"  # eta_2 undefined at alpha = -1


class TestZeroTable:
    @pytest.mark.parametrize("q", range(1, 17))
    def test_matches_per_k_sweep(self, q):
        for e in range(10):
            cap = 2.0**e
            ts, ks = census_mod._zero_table.__wrapped__(q, cap)
            ref_ts, ref_ks = per_k_zero_table(q, cap)
            assert np.array_equal(ts, ref_ts) and np.array_equal(ks, ref_ks)

    @pytest.mark.parametrize("q", (1, 2, 5, 16))
    def test_last_k_on_a_block_edge(self, q):
        block = census_mod.ZERO_TABLE_BLOCK
        for edge in (block - 1, block, 2 * block - 1, 2 * block):
            cap = float(positive_zeros(q, float(edge))[0])
            ts, ks = census_mod._zero_table.__wrapped__(q, cap)
            ref_ts, ref_ks = per_k_zero_table(q, cap)
            assert int(ks.max()) - q == edge
            assert np.array_equal(ts, ref_ts) and np.array_equal(ks, ref_ks)

    def test_one_solve_per_block(self, monkeypatch):
        # Every zero-table solve goes through laguerre.nodal_zeros, which calls
        # laguerre.positive_zeros; k = 0 solves nothing.
        calls = []

        def counted(q, alpha):
            calls.append(np.ndim(alpha))
            return positive_zeros(q, alpha)

        monkeypatch.setattr(laguerre_mod, "positive_zeros", counted)
        ts, ks = census_mod._zero_table.__wrapped__(16, 512.0)
        blocks = (int(ks.max()) - 16) // census_mod.ZERO_TABLE_BLOCK + 1
        assert calls.count(1) == blocks and calls.count(0) == 15


class TestEtaTable:
    ALPHAS_NEAR_EDGES = [d + s for d in range(-7, 1) for s in (-1e-12, -5e-13, 0.0, 1e-13, 0.25, 0.5)]

    def test_curve_matches_recursive_reference(self):
        for b in (0.5, 2.0):
            field = MagneticField(b)
            for q in range(1, 7):
                for ell in range(1, q + 1):
                    for a in self.ALPHAS_NEAR_EDGES + [3.0, 7.5]:
                        if a < (ell - q) - 1e-12:
                            continue
                        zeta = recursive_zeta(q, ell, max(a, float(ell - q)))
                        assert eta_curve(field, q, ell, a) == math.sqrt(2.0 * zeta / b)

    def test_table_matches_per_cell_curves(self):
        for b in (0.5, 1.3, 4.0):
            field = MagneticField(b)
            for q in range(1, 9):
                alphas = sorted(set(np.arange(1.0 - q, 10.25, 0.5).tolist() + self.ALPHAS_NEAR_EDGES))
                lines = ["alpha," + ",".join(f"eta_{ell}" for ell in range(1, q + 1))]
                for a in alphas:
                    cells = [f"{a:.17g}"]
                    for ell in range(1, q + 1):
                        if a < (ell - q) - 1e-12:
                            cells.append("nan")
                        else:
                            cells.append(f"{eta_curve(field, q, ell, a):.17g}")
                    lines.append(",".join(cells))
                assert eta_table_to_csv(field, q, alphas) == "\n".join(lines) + "\n"


class TestScalarConstants:
    def test_gap_hand_values(self):
        f1 = MagneticField(1.0)
        plus, minus = gap_constants(f1, 1, 0.0)
        assert plus == 2.0 / ((3.0) * (1.0))
        assert minus == 2.0 / ((3.0) * (5.0))

    def test_gap_limits_and_domain(self):
        f1 = MagneticField(1.0)
        plus, minus = gap_constants(f1, 1, 1e8)
        assert plus < 1e-12 and minus < 1e-12
        with pytest.raises(ValueError):
            gap_constants(f1, 1, -1.0)
        with pytest.raises(ValueError):
            gap_constants(f1, 0, 0.0)

    def test_coupling_hand_values(self):
        f1 = MagneticField(1.0)
        plus, minus = coupling_lower_bounds(f1, 1, 1.0)
        assert plus == 0.25
        assert minus == 2.0 / 26.0

    def test_coupling_monotone_decreasing(self):
        f1 = MagneticField(1.0)
        rows = [coupling_lower_bounds(f1, q, 1.0) for q in range(1, 11)]
        assert all(a[0] > b[0] and a[1] > b[1] for a, b in zip(rows, rows[1:]))

    def test_coupling_level_zero_unbounded_plus(self):
        plus, minus = coupling_lower_bounds(MagneticField(1.0), 0, 1.0)
        assert plus == math.inf and minus > 0

    def test_coupling_rejects_bad_constant(self):
        with pytest.raises(ValueError):
            coupling_lower_bounds(MagneticField(1.0), 1, 0.0)
