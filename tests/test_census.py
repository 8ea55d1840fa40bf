import copy
import dataclasses
import importlib
import itertools
import json
import math
import pickle
import re
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landaudelta.basis import MagneticField
from landaudelta.census import (
    TABLE_CELLS_MAX,
    T_MAX,
    ZERO_MEMBERSHIP_RTOL,
    CensusEntry,
    _close,
    _level_zeros,
    census,
    census_to_csv,
    coupling_lower_bounds,
    eta_curve,
    eta_table_to_csv,
    explicit_D12,
    gap_constants,
    multiplicities,
    multiplicity,
)

from landaudelta.cli import main
from landaudelta.curves import make_circle
from landaudelta.galerkin import persistence_check
from landaudelta.laguerre import positive_zeros
from landaudelta.toeplitz import _node_moduli

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
    order = np.argsort(ts, kind="stable")  # ties in ascending k, the table's order
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


def looped_multiplicity(field, q, r):
    """Reference multiplicity: the zero table indexed one numpy element at a time."""
    t = field.modulus(r)
    hi_t = t * (1.0 + 2.0 * ZERO_MEMBERSHIP_RTOL)
    ts, ks = _level_zeros(q).upto(hi_t)
    lo, hi = np.searchsorted(ts, [t * (1.0 - 2.0 * ZERO_MEMBERSHIP_RTOL), hi_t])
    witnesses = sorted((int(ks[i]), float(ts[i])) for i in range(lo, hi) if _close(ts[i], t))
    return len(witnesses), witnesses


def untouchable_table(q):
    """Stands in for _level_zeros where an input must be refused first: fails at once, where a missing guard would hang."""
    raise AssertionError(f"the level-{q} zero table was consulted")


def unsolvable(q, k):
    """Stands in for nodal_zeros where a (q, t) must be refused before any table work."""
    raise AssertionError(f"a zero of level {q} was solved")


def untouchable_view(obj):
    """Stands in for memoryview where a warm query must make none (calling a type is no profile event)."""
    raise AssertionError("a memoryview was made")


@dataclasses.dataclass(frozen=True)
class DataclassEntry:
    """Reference: the census entry as a frozen dataclass, checked in __post_init__."""

    r: float
    t: float
    multiplicity: int
    witnesses: tuple

    def __post_init__(self):
        if self.multiplicity != len(self.witnesses):
            raise ValueError("multiplicity must equal the number of witnesses")


def dataclass_census(field, q, r_max):
    """Reference census: the same grouping, one checked dataclass entry per group."""
    cap = 0.5 * field.b * r_max * r_max * (1.0 + ZERO_MEMBERSHIP_RTOL)
    ts, ks = _level_zeros(q).upto(cap)
    n = int(np.searchsorted(ts, cap, side="right"))
    if not n:
        return []
    ts, ks = ts[:n], ks[:n]
    starts = np.flatnonzero(np.concatenate([[True], ~_close(ts[1:], ts[:-1])]))
    counts = np.diff(np.append(starts, n))
    t_mean = np.add.reduceat(ts, starts) / counts
    r = np.sqrt(2.0 * t_mean / field.b)
    group = np.repeat(np.arange(starts.size), counts)
    order = np.lexsort((ts, ks, group))
    witnesses = list(zip(ks[order].tolist(), ts[order].tolist()))
    return [
        DataclassEntry(r_i, t_i, m, tuple(witnesses[lo : lo + m]))
        for r_i, t_i, lo, m in zip(r.tolist(), t_mean.tolist(), starts.tolist(), counts.tolist())
    ]


def per_entry_csv(entries):
    """Reference CSV: one generator join and one attribute read per field, per entry."""
    lines = ["r,t,multiplicity,witness_ks"]
    for e in entries:
        ks = ";".join(str(k) for k, _ in e.witnesses)
        lines.append(f"{e.r:.17g},{e.t:.17g},{e.multiplicity},{ks}")
    return "\n".join(lines) + "\n"


def per_cell_eta_csv(field, q, alphas):
    """Reference eta table: one eta_curve call per cell, nan below each curve's edge."""
    lines = ["alpha," + ",".join(f"eta_{ell}" for ell in range(1, q + 1))]
    for a in alphas:
        cells = [f"{a:.17g}"]
        for ell in range(1, q + 1):
            if a < (ell - q) - 1e-12:
                cells.append("nan")
            else:
                cells.append(f"{eta_curve(field, q, ell, a):.17g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


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

    @pytest.mark.parametrize("r", (math.inf, math.nan))
    def test_non_finite_radius_rejected(self, r, monkeypatch):
        # r = inf would grow the level's zero table without end, so it is refused before the table.
        monkeypatch.setattr(census_mod, "_level_zeros", untouchable_table)
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            multiplicity(F2, 1, r)

    def test_miss_returns_int_zero_and_empty_list(self):
        for q in (1, 3):
            m, w = multiplicity(F2, q, math.sqrt(0.5))
            assert type(m) is int and m == 0
            assert type(w) is list and w == []

    @pytest.mark.parametrize("q, t, expected", ((2, 210.0, 2), (2, 210.5, 0), (1, 200.0, 1), (1, 200.5, 0)))
    def test_query_that_grows_a_cold_table_matches_a_warm_one(self, q, t, expected):
        # t = 210 = 14^2 + 14 is a double radius of level 2, t = 200 a level-1 radius.
        r = math.sqrt(2.0 * t / F2.b)
        _level_zeros.cache_clear()
        assert _level_zeros(q).reach <= t  # the call below must grow the table
        cold = multiplicity(F2, q, r)
        assert _level_zeros(q).reach > t
        census(F2, q, 2.0 * r)  # grow well past t
        warm = multiplicity(F2, q, r)
        assert cold == warm and cold[0] == expected
        assert type(cold[0]) is int and type(cold[1]) is list
        assert all(type(k) is int and type(z) is float for k, z in cold[1])

    def test_query_past_the_first_reach_after_a_census_grew_the_table(self):
        # The census replaces the table's arrays; a query must read the new ones, not views of the old.
        q = 4
        _level_zeros.cache_clear()
        assert multiplicity(F2, q, 1.0) == looped_multiplicity(F2, q, 1.0)
        first_reach = _level_zeros(q).reach
        entries = census(F2, q, 2.0 * math.sqrt(first_reach))
        past = [e for e in entries if e.t > first_reach]
        assert len(past) > 100 and _level_zeros(q).reach > entries[-1].t
        for e in past[:: len(past) // 50]:
            assert multiplicity(F2, q, e.r) == (e.multiplicity, list(e.witnesses)) == looped_multiplicity(F2, q, e.r)
            assert e.multiplicity >= 1

    @pytest.mark.parametrize("q, t, m", ((5, None, 1), (5, None, 0), (2, 2.0, 2)), ids=["hit", "miss", "double"])
    def test_warm_query_makes_no_numpy_call(self, q, t, m, c_calls, monkeypatch):
        entries = census(F2, q, 4.0)  # grows the table past t = 16
        if t is None:
            t = entries[len(entries) // 2].t * (1.0 if m else 1.01)
        r = math.sqrt(2.0 * t / F2.b)
        expected = looped_multiplicity(F2, q, r)
        assert expected[0] == m
        monkeypatch.setattr(census_mod, "memoryview", untouchable_view, raising=False)
        answer, calls = c_calls(lambda: multiplicity(F2, q, r))
        assert answer == expected
        assert not [name for name in calls if name.startswith("numpy") or "tolist" in name], calls
        assert calls["builtins.sorted"] == (m > 1)  # one candidate needs no sort

    @given(r=st.floats(0.01, 4.0), q=st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_bounded_by_level(self, r, q):
        m, w = multiplicity(F2, q, r)
        assert 0 <= m <= q
        assert len(w) == m


    def test_matches_looped_reference(self):
        # Random radii, every census radius, and census t moved to the edges of the membership window.
        rng = np.random.default_rng(5)
        for b in (0.5, 2.0):
            field = MagneticField(b)
            for q in range(1, 8):
                radii = rng.uniform(1e-3, 4.0, size=300).tolist()
                for e in census(field, q, 4.0):
                    radii.append(e.r)
                    for rel in (-1.5, -0.99, 0.99, 1.5):
                        radii.append(math.sqrt(2.0 * e.t * (1.0 + rel * ZERO_MEMBERSHIP_RTOL) / b))
                for r in radii:
                    m, w = multiplicity(field, q, r)
                    assert (m, w) == looped_multiplicity(field, q, r)
                    assert all(type(k) is int and type(z) is float for k, z in w)

    @pytest.mark.parametrize("b", (0.5, 2.0, 4.0))
    def test_bisection_matches_looped_reference_at_every_census_radius(self, b):
        # Each census radius, the radius moved by 1e-10 relative, and t moved 0.99 and 1.5
        # membership tolerances either way: hits, edges of the rule and edges of the window.
        field = MagneticField(b)
        r_max = math.sqrt(2.0 * 60.0 / b)
        for q in range(1, 9):
            for e in census(field, q, r_max):
                radii = [e.r, e.r * (1.0 - 1e-10), e.r * (1.0 + 1e-10)]
                for rel in (-1.5, -0.99, 0.99, 1.5):
                    radii.append(math.sqrt(2.0 * e.t * (1.0 + rel * ZERO_MEMBERSHIP_RTOL) / b))
                for r in radii:
                    m, w = multiplicity(field, q, r)
                    assert (m, w) == looped_multiplicity(field, q, r)
                    assert type(m) is int and type(w) is list
                    assert all(type(k) is int and type(z) is float for k, z in w)
                    assert [k for k, _ in w] == sorted(k for k, _ in w)
                assert multiplicity(field, q, e.r) == (e.multiplicity, list(e.witnesses))

    def test_random_misses_are_int_zero_and_empty_list(self):
        rng = np.random.default_rng(11)
        for b in (0.5, 2.0, 4.0):
            field = MagneticField(b)
            for q in range(1, 9):
                for r in rng.uniform(1e-3, math.sqrt(2.0 * 60.0 / b), size=42).tolist():
                    assert looped_multiplicity(field, q, r) == (0, [])  # a hit has measure zero
                    m, w = multiplicity(field, q, r)
                    assert type(m) is int and m == 0 and type(w) is list and w == []


# (b, r) with t = b r^2 / 2 just past T_MAX, far past it, and overflowing to inf from a finite b or r.
PAST_T_MAX = ((2.0, math.nextafter(100.0, math.inf)), (2.0, 1e4), (1e300, 3.0), (2.0, 1e200))


def raised(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


class TestMultiplicities:
    """The many-radius count equals the scalar call's count at every radius it is given."""

    def scalar_counts(self, field, q, radii):
        return [multiplicity(field, q, float(r))[0] for r in radii]

    def test_census_bound_radii(self):
        # The draws of verify's census-bound check, in its order.
        rng = np.random.default_rng(23)
        for b in (0.5, 2.0):
            field = MagneticField(b)
            for q in range(1, 7):
                radii = rng.uniform(1e-3, 4.0, size=2000)
                got = multiplicities(field, q, radii)
                assert got.dtype.kind == "i" and got.shape == (2000,)
                assert got.tolist() == self.scalar_counts(field, q, radii)

    @pytest.mark.parametrize("b", [0.5, 2.0])
    def test_census_radii_and_the_membership_edge(self, b):
        # Every census radius; r 1e-10 relative from a zero (t 2e-10 relative, inside the window);
        # and t moved to either side of the window's edge.
        field = MagneticField(b)
        for q in range(1, 7):
            entries = census(field, q, 4.0)
            radii = [e.r for e in entries]
            radii += [e.r * (1.0 + s * 1e-10) for e in entries for s in (-1.0, 1.0)]
            radii += [math.sqrt(2.0 * e.t * (1.0 + rel * ZERO_MEMBERSHIP_RTOL) / b)
                      for e in entries for rel in (-1.5, -0.99, 0.99, 1.5)]
            got = multiplicities(field, q, radii)
            expected = self.scalar_counts(field, q, radii)
            assert got.tolist() == expected
            assert got[: len(entries)].tolist() == [e.multiplicity for e in entries]
            assert 0 in expected and max(expected) >= 1

    def test_shape_and_cold_table(self):
        radii = np.array([[1.0, math.sqrt(2.0)], [math.sqrt(0.5), math.sqrt(210.0)]])
        _level_zeros.cache_clear()  # the call below grows the table from cold to t = 210
        got = multiplicities(F2, 2, radii)
        assert got.shape == (2, 2)
        assert got.tolist() == [[0, 2], [0, 2]]
        assert multiplicities(F2, 2, radii[::-1]).tolist() == [[0, 2], [0, 2]]

    def test_empty_input(self, monkeypatch):
        monkeypatch.setattr(census_mod, "_level_zeros", untouchable_table)
        for radii in ([], np.empty(0)):
            got = multiplicities(F2, 3, radii)
            assert got.shape == (0,) and got.dtype.kind == "i"

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.inf, -math.inf, math.nan])
    def test_bad_radius_named_as_multiplicity_names_it(self, bad, monkeypatch):
        monkeypatch.setattr(census_mod, "_level_zeros", untouchable_table)
        expected = raised(multiplicity, F2, 1, bad)
        assert expected.startswith("radius must be positive and finite, got ")
        assert raised(multiplicities, F2, 1, [1.0, bad, -7.0, 2.0]) == expected
        assert raised(multiplicities, F2, 1, np.array([bad])) == expected

    @pytest.mark.parametrize("b, r", PAST_T_MAX)
    def test_t_past_the_limit_named_as_multiplicity_names_it(self, b, r, monkeypatch):
        monkeypatch.setattr(census_mod, "_level_zeros", untouchable_table)
        field = MagneticField(b)
        expected = raised(multiplicity, field, 3, r)
        assert expected.endswith("is past the census limit T_MAX = 10000")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowing t is refused without a numpy warning
            assert raised(multiplicities, field, 3, [math.sqrt(2.0 / b), r, 2.0 * r]) == expected

    def test_level_zero_rejected_as_multiplicity_rejects_it(self):
        assert raised(multiplicities, F2, 0, [1.0]) == raised(multiplicity, F2, 0, 1.0)
        assert raised(multiplicities, F2, 0, []) == raised(multiplicity, F2, 0, 1.0)


class TestCensus:
    def test_membership_rule_groups_zeros_that_differ_in_the_last_bits(self):
        # At b = 2, q = 18 the zeros for k = 515 and k = 629 agree to 3e-10 relative, not
        # bitwise; every coincidence at smaller t is bitwise, so this pins the tolerance.
        entries = [e for e in census(F2, 18, 22.05) if e.multiplicity > 1]
        assert [[k for k, _ in e.witnesses] for e in entries] == [[515, 629]]
        (_, t1), (_, t2) = entries[0].witnesses
        assert t1 != t2 and abs(t1 - t2) <= ZERO_MEMBERSHIP_RTOL * max(t1, t2)
        assert multiplicity(F2, 18, entries[0].r) == (2, list(entries[0].witnesses))

    def test_multiplicity_lists_the_census_witnesses(self):
        # Bitwise-tied zeros (q = 2, t = 182: k = 169 and 196) must come out in one order,
        # ascending k, from both functions.
        for b in (0.5, 2.0, 4.0, 25.0 * math.pi / 16.0):
            field = MagneticField(b)
            for q in range(1, 9):
                for e in census(field, q, math.sqrt(800.0 / b)):
                    assert multiplicity(field, q, e.r) == (e.multiplicity, list(e.witnesses))

    def test_near_equal_zeros_list_their_witnesses_in_ascending_k(self, monkeypatch):
        # No real table has yet put near-equal zeros in descending k; this one does.
        ts = np.array([1.0, 2.0, 2.0 + 2e-10, 2.0 + 4e-10, 3.0, 3.0 + 1e-10])
        ks = np.array([3, 9, 7, 4, 2, 8])

        class StubTable:
            def upto(self, cap):
                return ts, ks

        monkeypatch.setattr(census_mod, "_level_zeros", lambda q: StubTable())
        entries = census(F2, 5, math.sqrt(3.5))
        assert [e.multiplicity for e in entries] == [1, 3, 2]
        assert entries[0].witnesses == ((3, 1.0),)
        assert entries[1].witnesses == ((4, 2.0 + 4e-10), (7, 2.0 + 2e-10), (9, 2.0))
        assert entries[2].witnesses == ((2, 3.0), (8, 3.0 + 1e-10))
        assert all(type(e) is CensusEntry and type(e.witnesses) is tuple for e in entries)

    def test_same_calls_from_python_at_any_size(self, c_calls):
        # The entries come from C-level passes: no call from Python per entry.
        r_large = math.sqrt(5000.0)
        census(F2, 1, r_large)  # grow the table first
        small, few = c_calls(lambda: census(F2, 1, 10.0))
        large, many = c_calls(lambda: census(F2, 1, r_large))
        assert (len(small), len(large)) == (100, 5000)
        assert few == many and "builtins.tuple.__new__" not in few

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

    @pytest.mark.parametrize("r_max", (math.inf, math.nan))
    def test_non_finite_r_max_rejected(self, r_max, monkeypatch):
        monkeypatch.setattr(census_mod, "_level_zeros", untouchable_table)
        with pytest.raises(ValueError, match="r_max must be positive and finite"):
            census(F2, 1, r_max)

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

    @given(b=st.floats(0.5, 4.0), q=st.integers(1, 16), t_max=st.floats(0.5, 400.0))
    @settings(max_examples=60, deadline=None)
    def test_csv_rows_parse_back_to_their_entries(self, b, q, t_max):
        entries = census(MagneticField(b), q, math.sqrt(2.0 * t_max / b))
        rows = census_to_csv(entries).splitlines()[1:]
        assert len(rows) == len(entries)
        for row, (r, t, m, witnesses) in zip(rows, entries):
            r_text, t_text, m_text, ks_text = row.split(",")
            assert (float(r_text), float(t_text), int(m_text)) == (r, t, m)
            assert [int(k) for k in ks_text.split(";")] == [k for k, _ in witnesses]


def same_float(a, b):
    return type(a) is float and type(b) is float and a.hex() == b.hex()


class TestEntryContract:
    ENTRY = CensusEntry(1.5, 1.125, 2, ((1, 1.125), (4, 1.125)))

    def test_fields_in_order(self):
        assert CensusEntry._fields == ("r", "t", "multiplicity", "witnesses")
        r, t, m, witnesses = self.ENTRY
        assert (r, t, m, witnesses) == (self.ENTRY.r, self.ENTRY.t, self.ENTRY.multiplicity, self.ENTRY.witnesses)
        assert self.ENTRY._asdict() == {"r": 1.5, "t": 1.125, "multiplicity": 2, "witnesses": ((1, 1.125), (4, 1.125))}

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.ENTRY.r = 2.0
        with pytest.raises(AttributeError):
            self.ENTRY.extra = 1
        with pytest.raises(TypeError):
            self.ENTRY[0] = 2.0

    def test_equality_and_hash(self):
        plain = (1.5, 1.125, 2, ((1, 1.125), (4, 1.125)))
        twin = CensusEntry(*plain)
        assert twin == self.ENTRY == plain and hash(twin) == hash(self.ENTRY) == hash(plain)
        assert len({twin, self.ENTRY}) == 1
        assert self.ENTRY != CensusEntry(1.5, 1.125, 1, ((1, 1.125),))
        assert census(F2, 2, 1.5) == census(F2, 2, 1.5)

    def test_mismatch_raises_through_every_door(self):
        with pytest.raises(ValueError, match="multiplicity must equal the number of witnesses"):
            CensusEntry(1.0, 1.0, 0, ((1, 1.0),))
        with pytest.raises(ValueError, match="multiplicity must equal the number of witnesses"):
            CensusEntry._make((1.0, 1.0, 2, ((1, 1.0),)))
        with pytest.raises(ValueError, match="multiplicity must equal the number of witnesses"):
            self.ENTRY._replace(multiplicity=1)
        with pytest.raises(ValueError, match="multiplicity must equal the number of witnesses"):
            self.ENTRY._replace(witnesses=())
        with pytest.raises(TypeError):
            CensusEntry._make((1.0, 1.0, 0))

    def test_valid_copies_keep_the_type(self):
        moved = self.ENTRY._replace(r=2.0)
        assert type(moved) is CensusEntry and moved == (2.0, 1.125, 2, self.ENTRY.witnesses)
        for clone in (CensusEntry._make(self.ENTRY), copy.deepcopy(self.ENTRY), pickle.loads(pickle.dumps(self.ENTRY))):
            assert type(clone) is CensusEntry and clone == self.ENTRY
        assert repr(self.ENTRY) == "CensusEntry(r=1.5, t=1.125, multiplicity=2, witnesses=((1, 1.125), (4, 1.125)))"

    def test_dataclass_helpers_keep_working(self):
        assert dataclasses.is_dataclass(self.ENTRY)
        assert [f.name for f in dataclasses.fields(self.ENTRY)] == list(CensusEntry._fields)
        assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(CensusEntry))
        assert dataclasses.asdict(self.ENTRY) == self.ENTRY._asdict()
        moved = dataclasses.replace(self.ENTRY, r=2.0)
        assert type(moved) is CensusEntry and moved == self.ENTRY._replace(r=2.0)
        with pytest.raises(ValueError, match="multiplicity must equal the number of witnesses"):
            dataclasses.replace(self.ENTRY, multiplicity=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.ENTRY.r = 2.0


class TestByteIdentity:
    """census and census_to_csv against the frozen-dataclass build and per-entry CSV they replaced."""

    @pytest.mark.parametrize("b", (0.5, 1.0, 2.0, 4.0))
    def test_entries_and_csv_match_the_dataclass_reference(self, b):
        field = MagneticField(b)
        for q in range(1, 17):
            for t_max in (4.0, 37.0, 400.0):
                r_max = math.sqrt(2.0 * t_max / b)
                entries, reference = census(field, q, r_max), dataclass_census(field, q, r_max)
                assert census_to_csv(entries) == per_entry_csv(reference)
                assert len(entries) == len(reference)
                for e, ref in zip(entries, reference):
                    assert type(e) is CensusEntry and type(e.multiplicity) is int and type(e.witnesses) is tuple
                    assert same_float(e.r, ref.r) and same_float(e.t, ref.t) and e.multiplicity == ref.multiplicity
                    assert len(e.witnesses) == len(ref.witnesses)
                    for (k, z), (ref_k, ref_z) in zip(e.witnesses, ref.witnesses):
                        assert type(k) is int and k == ref_k and same_float(z, ref_z)

    def test_csv_of_constructed_entries_matches_per_entry_csv(self):
        entries = [
            CensusEntry(0.1, 0.005, 0, ()),
            CensusEntry(1.0, 1.0, 1, ((1, 1.0),)),
            CensusEntry(math.sqrt(2.0), 2.0, 3, ((1, 2.0), (4, 2.0), (9, 2.0))),
        ]
        assert census_to_csv(entries) == per_entry_csv(entries)
        assert census_to_csv([]) == per_entry_csv([]) == "r,t,multiplicity,witness_ks\n"

    @pytest.mark.parametrize("b, q, r_max", ((2.0, 2, 3.0), (0.5, 7, 9.0), (4.0, 16, 14.0)))
    def test_cli_prints_the_reference_bytes(self, capsys, b, q, r_max):
        reference = dataclass_census(MagneticField(b), q, r_max)
        argv = ["census", "--b", str(b), "--q", str(q), "--rmax", str(r_max)]
        assert main([*argv, "--format", "csv"]) == 0
        assert capsys.readouterr().out == per_entry_csv(reference)
        payload = [
            {"r": e.r, "t": e.t, "multiplicity": e.multiplicity, "witnesses": [{"k": k, "zero": z} for k, z in e.witnesses]}
            for e in reference
        ]
        assert main([*argv, "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(payload, indent=1) + "\n"


class TestTLimit:
    PAST = PAST_T_MAX

    @pytest.mark.parametrize("b, r", PAST)
    def test_refused_before_the_table(self, b, r, monkeypatch):
        monkeypatch.setattr(census_mod, "_level_zeros", untouchable_table)
        field = MagneticField(b)
        with pytest.raises(ValueError, match=r"t = b r\^2 / 2 = .* is past the census limit T_MAX = 10000$"):
            multiplicity(field, 3, r)
        with pytest.raises(ValueError, match=r"t = b r_max\^2 / 2 = .* is past the census limit T_MAX = 10000$"):
            census(field, 3, r)

    @pytest.mark.parametrize("b, r", PAST[:3])
    def test_persistence_check_inherits_the_limit(self, b, r, monkeypatch):
        monkeypatch.setattr(census_mod, "_level_zeros", untouchable_table)
        with pytest.raises(ValueError, match="is past the census limit T_MAX"):
            persistence_check(MagneticField(b), 1, r)

    def test_census_and_circle_kernel_read_one_t(self, monkeypatch):
        # multiplicity, multiplicities and census form t = b r^2 / 2 as the circle kernel does, bit for
        # bit (MagneticField.modulus), so a persistence check's census and coupling see one t.
        class Seen(Exception):
            pass

        def seen(q, t, radius):
            raise Seen(t)

        monkeypatch.setattr(census_mod, "_check_reach", seen)
        rng = np.random.default_rng(100)
        other = 0
        for b, r in zip(rng.uniform(0.5, 4.0, 2000).tolist(), rng.uniform(0.1, 10.0, 2000).tolist()):
            field = MagneticField(b)
            kernel_t = _node_moduli(field, make_circle(r, n=16))[0]
            for call in (multiplicity, census, lambda f, q, r: multiplicities(f, q, [r])):
                with pytest.raises(Seen) as got:
                    call(field, 1, r)
                assert got.value.args[0] == kernel_t
            other += ((0.5 * b) * r) * r != kernel_t
        assert other > 500  # ((b / 2) r) r differs in the last bit on about a third of the pairs

    def test_the_limit_itself_is_accepted(self):
        assert T_MAX == 1e4
        entries = census(F2, 1, 100.0)  # t = b r^2 / 2 = T_MAX exactly
        assert len(entries) == 10000 and entries[-1].t == pytest.approx(T_MAX, rel=1e-12)
        assert multiplicity(F2, 1, 100.0) == (1, list(entries[-1].witnesses))


def edge_t(q):
    """The largest t whose level-q table stays within TABLE_CELLS_MAX: q^2 (sqrt(q) + sqrt(t))^2 = TABLE_CELLS_MAX."""
    return (math.sqrt(TABLE_CELLS_MAX) / q - math.sqrt(q)) ** 2


class TestTableCellLimit:
    @pytest.fixture(autouse=True)
    def no_table_work(self, monkeypatch):
        # A fresh table for every call, whose first solve fails: a refusal must come before it.
        monkeypatch.setattr(census_mod, "_level_zeros", census_mod._LevelZeros)
        monkeypatch.setattr(census_mod, "nodal_zeros", unsolvable)

    @pytest.mark.parametrize("q, t", ((300, T_MAX), (311, 1e-6), (60, edge_t(60) * (1 + 1e-9)), (52, T_MAX),
                                      pytest.param(10**200, 1.0, id="q=1e200")))  # a float q^2 would overflow
    def test_refused_before_the_table(self, q, t):
        r = math.sqrt(2.0 * t / F2.b)
        message = (f"q = {q} at t = b r^2 / 2 = {F2.modulus(r)} is past the census limit "
                   f"q^2 (sqrt(q) + sqrt(t))^2 <= TABLE_CELLS_MAX = 3e+07")
        assert raised(multiplicity, F2, q, r) == message
        assert raised(multiplicities, F2, q, [0.5 * r, r, 0.25 * r]) == message  # the largest t is named
        assert raised(census, F2, q, r) == message.replace("r^2", "r_max^2")

    @pytest.mark.parametrize("q, t", ((60, edge_t(60) * (1 - 1e-9)), (51, T_MAX), (1, T_MAX), (300, 0.5)))
    def test_accepted_up_to_the_limit(self, q, t):
        r = math.sqrt(2.0 * t / F2.b)
        for call in (lambda: multiplicity(F2, q, r), lambda: multiplicities(F2, q, [r]), lambda: census(F2, q, r)):
            with pytest.raises(AssertionError, match="was solved"):
                call()

    def test_eta_curves_at_negative_alpha_refused_past_the_limit(self, monkeypatch):
        # The k < q rows an alpha < 0 reads hold about q^3 cells: q = 311 is past 3e7, q = 310 is not.
        # The one bound on q holds at every alpha, so alpha >= 0, which reads no table, is refused at q = 311 too.
        monkeypatch.setattr(census_mod, "positive_zeros", unsolvable)
        message = ("eta curves at q = 311, n_alpha = {} (their stacked parameters alpha >= 0), are past "
                   "the census limit max(q^3, n_alpha q^2) <= TABLE_CELLS_MAX = 3e+07")
        assert raised(eta_curve, F2, 311, 1, -0.5) == message.format(1)  # the parameter-0 row an alpha in (-1, 0) reads
        assert raised(eta_table_to_csv, F2, 311, [1.0, -2.0]) == message.format(2)
        assert raised(eta_curve, F2, 311, 1, 0.5) == message.format(1)
        for alpha in (-0.5, 0.5):
            with pytest.raises(AssertionError, match="was solved"):
                eta_curve(F2, 310, 1, alpha)

    def test_eta_curves_at_nonnegative_alpha_refused_past_the_stacked_cells(self, monkeypatch):
        # Each parameter alpha >= 0 stacks one q x q Jacobi matrix: at q = 310, 312 of them fit in 3e7 cells, 313 do not.
        monkeypatch.setattr(census_mod, "positive_zeros", unsolvable)
        message = ("eta curves at q = 310, n_alpha = 313 (their stacked parameters alpha >= 0), are past "
                   "the census limit max(q^3, n_alpha q^2) <= TABLE_CELLS_MAX = 3e+07")
        assert raised(eta_table_to_csv, F2, 310, np.arange(313.0)) == message
        assert raised(eta_table_to_csv, F2, 310, np.arange(-1.0, 312.0)) == message  # alpha < 0 adds the parameter-0 row
        with pytest.raises(AssertionError, match="was solved"):
            eta_table_to_csv(F2, 310, np.arange(312.0))

    def test_limit_and_t_max_messages(self):
        assert TABLE_CELLS_MAX == 3e7 and edge_t(51) > T_MAX > edge_t(52)
        assert raised(census, F2, 300, 100.0) == (
            "q = 300 at t = b r_max^2 / 2 = 10000.0 is past the census limit "
            "q^2 (sqrt(q) + sqrt(t))^2 <= TABLE_CELLS_MAX = 3e+07")
        # Past T_MAX, the T_MAX message comes first at any q.
        assert raised(census, F2, 300, 101.0).endswith("is past the census limit T_MAX = 10000")


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


def fresh_table(q: int, cap: float):
    """A new level-q table grown to cap, read as census reads it: every zero t <= cap (1 + 1e-9)."""
    bound = cap * (1.0 + ZERO_MEMBERSHIP_RTOL)
    ts, ks = census_mod._LevelZeros(q).upto(bound)
    n = np.searchsorted(ts, bound, side="right")
    return ts[:n], ks[:n]


def clear_census_caches():
    """Empty every functools cache of the census module, the level zero tables among them."""
    for obj in vars(census_mod).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


class TestZeroTable:
    @pytest.mark.parametrize("q", range(1, 17))
    def test_matches_per_k_sweep(self, q):
        for e in range(10):
            cap = 2.0**e
            ts, ks = fresh_table(q, cap)
            ref_ts, ref_ks = per_k_zero_table(q, cap)
            assert np.array_equal(ts, ref_ts) and np.array_equal(ks, ref_ks)

    @pytest.mark.parametrize("q", (1, 2, 5, 16))
    def test_last_k_on_a_block_edge(self, q):
        block = census_mod.ZERO_TABLE_BLOCK
        for edge in (block - 1, block, 2 * block - 1, 2 * block):
            cap = float(positive_zeros(q, float(edge))[0])
            ts, ks = fresh_table(q, cap)
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
        ts, ks = fresh_table(16, 512.0)
        blocks = (int(ks.max()) - 16) // census_mod.ZERO_TABLE_BLOCK + 1
        assert calls.count(1) == blocks and calls.count(0) == 15

    @pytest.mark.parametrize("order", list(itertools.permutations(("census", "multiplicity", "eta"))))
    def test_census_multiplicity_and_eta_share_the_k_below_q_solves(self, order, monkeypatch):
        # The k < q rows of level 16 are 15 scalar solves (k = 0 solves nothing), made once
        # by whichever consumer reads the table first; every other solve is a stacked call.
        calls = []

        def counted(q, alpha):
            calls.append(np.ndim(alpha))
            return positive_zeros(q, alpha)

        clear_census_caches()
        monkeypatch.setattr(laguerre_mod, "positive_zeros", counted)
        alphas = np.arange(-15.0, 4.25, 0.25)
        run = {
            "census": lambda: census(F2, 16, 6.0),
            "multiplicity": lambda: [multiplicity(F2, 16, r) for r in np.linspace(0.1, 6.0, 50).tolist()],
            "eta": lambda: eta_table_to_csv(F2, 16, alphas),
        }
        for name in order:
            run[name]()
        assert calls.count(0) == 15
        clear_census_caches()

    @pytest.mark.parametrize("q", (1, 3, 16))
    def test_growth_in_any_order_matches_one_build(self, q):
        caps = [2.0**e for e in range(10)]
        np.random.default_rng(q).shuffle(caps)
        grown = census_mod._LevelZeros(q)
        for cap in caps:
            grown.upto(cap)
        ts, ks = census_mod._LevelZeros(q).upto(max(caps))
        assert np.array_equal(grown.ts, ts) and np.array_equal(grown.ks, ks)

    def test_negative_rows_are_the_solved_rows_reversed(self):
        # Zeros of L_q^(-n), n = 1 .. q - 1: none at q = 1.
        for q in range(1, 25):
            rows = census_mod._LevelZeros(q).negative_rows()
            expected = [laguerre_mod.nodal_zeros(q, q - n)[::-1] for n in range(1, q)]
            assert [(r.dtype, r.tobytes()) for r in rows] == [(e.dtype, e.tobytes()) for e in expected]

    def test_cache_clear_empties_the_table(self, monkeypatch):
        calls = []

        def counted(q, alpha):
            calls.append(q)
            return positive_zeros(q, alpha)

        monkeypatch.setattr(laguerre_mod, "positive_zeros", counted)
        census_mod._level_zeros.cache_clear()
        first = census(F2, 5, 4.0)
        cold = len(calls)
        assert cold > 0 and census(F2, 5, 4.0) == first and len(calls) == cold
        census_mod._level_zeros.cache_clear()
        assert census(F2, 5, 4.0) == first and len(calls) == 2 * cold


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
                assert eta_table_to_csv(field, q, alphas) == per_cell_eta_csv(field, q, alphas)

    @pytest.mark.parametrize("q", range(9, 17))
    def test_table_matches_per_cell_curves_at_high_levels(self, q):
        # Negative integers -n and the cells between them read the rows of L_q^(-n) from a
        # cold level's zero table; alpha in (-1, 0) interpolates toward the parameter-0 row.
        alphas = sorted(set(np.arange(1.0 - q, 8.25, 0.25).tolist() + [-0.9, -0.1, -1e-13] + self.ALPHAS_NEAR_EDGES))
        for b in (0.5, 1.7, 4.0):
            field = MagneticField(b)
            census_mod._level_zeros.cache_clear()
            text = eta_table_to_csv(field, q, alphas)
            assert text == per_cell_eta_csv(field, q, alphas)
            for line, a in zip(text.splitlines()[1:], alphas):
                cells = line.split(",")[1:]
                for ell in range(1, q + 1):
                    if a >= ell - q - 1e-12 and (a < 0 or a == round(a)):
                        zeta = recursive_zeta(q, ell, max(a, float(ell - q)))
                        assert cells[ell - 1] == f"{math.sqrt(2.0 * zeta / b):.17g}"

    def test_table_matches_per_cell_curves_on_the_verify_grid(self):
        # verify's census-eta-curves reads one table per level at b = 2, alpha = 1 - q, ..., 11.5.
        for q in (2, 3, 4):
            alphas = np.arange(1.0 - q, 12.0, 0.5)
            text = eta_table_to_csv(F2, q, alphas)
            assert text == per_cell_eta_csv(F2, q, alphas.tolist())
            rows = [[float(cell) for cell in row.split(",")] for row in text.splitlines()[1:]]
            assert [row[0] for row in rows] == alphas.tolist() and rows[-1][0] == 11.5
            for row in rows:
                for ell, cell in enumerate(row[1:], start=1):
                    if row[0] < ell - q:
                        assert math.isnan(cell)
                    else:
                        assert cell == eta_curve(F2, q, ell, row[0])  # %.17g parses back exactly


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


@pytest.mark.parametrize("call, message", [
    (lambda: census(F2, 0, 1.0), "census is defined for q >= 1; the q = 0 kernel is always trivial"),
    (lambda: explicit_D12(F2, 0), "n_max must be >= 1, got 0"),
    (lambda: coupling_lower_bounds(F2, -1, 1.0), "level q must be >= 0, got -1"),
], ids=["census-q0", "explicit-n_max-0", "bounds-negative-q"])
def test_refusals_name_their_input(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


@pytest.mark.parametrize("call", [
    lambda q: census(F2, q, 2.0),
    lambda q: multiplicity(F2, q, 1.0),
    lambda q: multiplicities(F2, q, [1.0, math.sqrt(2.0)]),
    lambda q: eta_curve(F2, q, 1, 0.5),
], ids=["census", "multiplicity", "multiplicities", "eta_curve"])
def test_non_integer_level_refused_by_name(call):
    for q in (2.0, 2.5, np.float64(2.0), True, False, "2", None):
        with pytest.raises(ValueError, match="^" + re.escape(f"level q must be an integer, got {q!r}") + "$"):
            call(q)
    assert repr(call(np.int64(2))) == repr(call(2))  # numpy integers answer as ints do
