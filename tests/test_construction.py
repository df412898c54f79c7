import itertools
import math
from fractions import Fraction

import pytest

from proxinorm import construction
from proxinorm.approxlin import build_report
from proxinorm.construction import (
    EXACT_HEAD_TERMS,
    ConstructionTable,
    canonical_table,
    growth_tail_majorant,
    rational_grid,
    square_tail_majorant,
)
from proxinorm.descent import REPORT_DEPTH, Subspace, build_probes
from proxinorm.errors import DepthBudgetError
from proxinorm.vectors import SparseVec, dyadic_parts, l1_norm


def test_first_entry_is_zero_vector_with_tag_one(table):
    u, a = table.entry(1)
    assert u.is_zero() and a == 1


def test_entry_idempotent(table):
    assert table.entry(7) == table.entry(7)


def test_determinism_across_tables():
    t1 = ConstructionTable(depth_budget=400)
    t2 = ConstructionTable(depth_budget=400)
    assert list(t1.prefix(400)) == list(t2.prefix(400))


def test_growth_conditions_on_prefix(table):
    prev = 0
    for _, u, a in table.prefix(500):
        assert a > prev
        if not u.is_zero():
            assert a > max(u.support(), default=0)
            assert a >= l1_norm(u)
        prev = a


def test_rational_grid_sizes():
    assert rational_grid(1) == []
    assert rational_grid(2) == [Fraction(-1), Fraction(1)]
    assert len(rational_grid(3)) == 6
    assert len(rational_grid(4)) == 10


def iter_level(level):
    """All vectors of height <= level in canonical order, zero first: the
    definition of the ``construction`` module docstring in Fractions, the
    oracle of the table's stream."""
    yield SparseVec.zero()
    supports = sorted(
        supp for size in range(1, level + 1)
        for supp in itertools.combinations(range(1, level + 1), size)
    )
    for supp in supports:
        for combo in itertools.product(rational_grid(level), repeat=len(supp)):
            yield SparseVec(dict(zip(supp, combo)))


def test_level_recurrence():
    """Every vector of a level reappears in the next level."""
    lvl2 = list(iter_level(2))
    lvl3 = set(iter_level(3))
    assert len(lvl2) == 9
    for v in lvl2:
        assert v in lvl3


def tags_of(table, x, k_max):
    """Tags of the occurrences of x in the first k_max stream positions."""
    return [table.tag(k) for k in table.occurrence_positions(x, k_max)]


def test_occurrences_grow_between_levels(table):
    """A vector's tag set strictly grows from one enumeration level to the next."""
    e1 = SparseVec.unit(1)
    lvl2_end = 1 + 9  # levels 1 and 2
    lvl3_end = lvl2_end + len(list(iter_level(3)))
    early = tags_of(table, e1, lvl2_end)
    later = tags_of(table, e1, lvl3_end)
    assert set(early) < set(later)


def test_tag_set_within_prefix_tags(table):
    x = SparseVec({1: Fraction(1, 2), 2: -1})
    tags = tags_of(table, x, 500)
    all_tags = {a for _, _, a in table.prefix(500)}
    assert set(tags) <= all_tags


def test_min_occurrence_tag_beyond_support(table):
    """Eq-(1-2)-style consequence checked for several nonzero vectors."""
    for x in [SparseVec.unit(1), SparseVec({1: 1, 2: 1}), SparseVec({1: Fraction(1, 2), 2: -1})]:
        tags = tags_of(table, x, 500)
        assert tags and min(tags) > max(x.support(), default=0)
        assert min(tags) >= l1_norm(x)


def test_tail_bound_strictly_decreasing(table):
    for K in range(0, 40):
        assert table.tail_bound(K) > table.tail_bound(K + 1)


def test_tail_bound_below_two(table):
    assert table.tail_bound(0) < 2


def test_tail_bound_dominates_fifty_exact_terms(table):
    for K in (0, 5, 17):
        exact = Fraction(0)
        for k in range(K + 1, K + 51):
            a = table.tag(k)
            exact += Fraction(1 + a, 1 << a * a)
        assert table.tail_bound(K) >= exact


def test_majorants_dominate_plain_series():
    # 30 raw terms of each series must stay below the closed-form bounds.
    for m in (1, 2, 5):
        growth = sum(Fraction(1 + n, 1 << n * n) for n in range(m, m + 30))
        squares = sum(Fraction(1, 1 << n * n) for n in range(m, m + 30))
        assert growth_tail_majorant(m) >= growth
        assert square_tail_majorant(m) >= squares


def naive_tail_majorant(m, weight):
    """Exact head of EXACT_HEAD_TERMS terms weight(n) * 2^(-n^2) from n = m,
    plus the closed-form tail 2 * weight(M) * 2^(-M^2), M = m + EXACT_HEAD_TERMS,
    rounded up to a multiple of 2^(-(m+2)^2-2); Fractions over the common
    denominator 2^(M^2)."""
    M = m + EXACT_HEAD_TERMS
    head = Fraction(sum(weight(n) * 2 ** (M * M - n * n) for n in range(m, M)), 2 ** (M * M))
    tail = Fraction(2 * weight(M), 2 ** (M * M))
    grain = 2 ** ((m + 2) ** 2 + 2)
    return Fraction(math.ceil((head + tail) * grain), grain)


def test_tail_majorants_match_naive_derivation():
    # up to m = 364: a 2^17-bit norm enclosure's tail starts near m = 363
    for m in (*range(1, 62), 100, 200, 364):
        assert growth_tail_majorant(m) == naive_tail_majorant(m, lambda n: 1 + n)
        assert square_tail_majorant(m) == naive_tail_majorant(m, lambda n: 1)


@pytest.mark.parametrize("slope", [0, 1])
def test_tail_majorant_is_built_in_lowest_terms(slope):
    """The three head terms plus one grain over 2^g, as ``Fraction`` reduces
    it: a value stored unreduced would compare unequal to the reduced one."""
    for m in range(1, 401):
        g = (m + 2) ** 2 + 2
        num = 1 + sum((1 + slope * n) << (g - n * n) for n in range(m, m + 3))
        assert construction._tail_majorant(m, slope) == Fraction(num, 1 << g), m


def naive_weight_tail_bound(table, k):
    """(lower, upper) for sum over l > k of 2^(-a_l^2) in Fractions: the
    exact head over EXACT_HEAD_TERMS positions (fewer where the depth
    budget cuts it short) rounded outward to the grain
    2^(-(a^2+4a+16)), a = a_k, the upper one plus the square-series majorant
    from the next tag on, also rounded up to the grain."""
    a = table.tag(k)
    last = min(k + EXACT_HEAD_TERMS, table.depth_budget)
    E = table.tag(last) ** 2
    head = Fraction(sum(2 ** (E - table.tag(l) ** 2) for l in range(k + 1, last + 1)), 2 ** E)
    grain = 2 ** (a * a + 4 * a + 16)
    majorant = naive_tail_majorant(table.tag(last) + 1, lambda n: 1)
    lower = Fraction(math.floor(head * grain), grain)
    upper = Fraction(math.ceil(head * grain) + math.ceil(majorant * grain), grain)
    return lower, upper


def test_report_eps_bounds_match_naive_weight_tail_bound(table, criterion6_starts):
    """eps_i * 2^(-i^2) is weight_tail_bound at the position of tag i."""
    H = Subspace([SparseVec.unit(1), SparseVec.unit(2)])
    expected = {}
    for x0 in criterion6_starts:
        report = build_report(table, x0, build_probes(table, H, x0), REPORT_DEPTH)
        assert report.usable
        for i in report.usable:
            k = report.index_position[i]
            if k not in expected:
                expected[k] = naive_weight_tail_bound(table, k)
            lo, hi = expected[k]
            assert report.eps_lo[i] == lo * 2 ** (i * i)
            assert report.eps_hi[i] == hi * 2 ** (i * i)
    assert len(expected) > 1


def test_weight_tail_bound_matches_naive_to_the_depth_budget(table):
    """Full heads deep in the default table, and every k of the last 50
    positions of a 120-entry table, whose heads the budget cuts short;
    at k = 120 no head is left."""
    for k in (100, 200, 300, 399):
        assert table.weight_tail_bound(k) == naive_weight_tail_bound(table, k), k
    short = ConstructionTable(120)
    for k in range(71, 120):
        assert short.weight_tail_bound(k) == naive_weight_tail_bound(short, k), k
    with pytest.raises(DepthBudgetError):
        short.weight_tail_bound(120)


def test_growth_prefix_dyadic_matches_fractions(table):
    """The integer form of the growth prefix that acceptance criterion 2
    compares with 2."""
    num, _, exp = dyadic_parts((1 + a, 1, a * a) for _, _, a in table.prefix(25))
    direct = sum(
        Fraction(1 + a, 1 << a * a) for _, _, a in table.prefix(25)
    )
    assert Fraction(num, 1 << exp) == direct
    assert (num < 2 << exp) == (direct < 2)


def test_depth_budget_enforced():
    small = ConstructionTable(depth_budget=10)
    small.entry(10)
    with pytest.raises(DepthBudgetError):
        small.entry(11)


def test_depth_budget_must_be_positive():
    with pytest.raises(ValueError, match="depth_budget must be positive"):
        ConstructionTable(0)


def test_weight_tail_bounds_bracket_exact_sum(table):
    for k in (2, 9, 30):
        lo, hi = table.weight_tail_bound(k)
        exact_head = Fraction(0)
        for l in range(k + 1, k + 51):
            a = table.tag(l)
            exact_head += Fraction(1, 1 << a * a)
        assert lo <= exact_head <= hi


def test_weight_tail_bound_memo_matches_fresh_table(monkeypatch, criterion6_starts):
    H = Subspace([SparseVec.unit(1), SparseVec.unit(2)])
    warmed = canonical_table()
    memoized = ConstructionTable.weight_tail_bound
    keys = []

    def recording(self, k):
        keys.append(k)
        return memoized(self, k)

    with monkeypatch.context() as m:
        m.setattr(ConstructionTable, "weight_tail_bound", recording)
        for x0 in criterion6_starts:
            probes = build_probes(warmed, H, x0)
            build_report(warmed, x0, probes, REPORT_DEPTH)
    assert len(set(keys)) < len(keys)  # reports repeat keys across starts
    fresh = canonical_table()
    for key in sorted(set(keys)):
        bounds = warmed.weight_tail_bound(key)
        assert bounds == fresh.weight_tail_bound(key)
        assert warmed.weight_tail_bound(key) is bounds


def test_extension_takes_no_fraction_l1_and_builds_each_vector_once(monkeypatch):
    """Tags take ceil(l1) in integers, so extension adds no Fractions; and a
    vector's recurrences within the first 2,000 entries are one object."""
    arithmetic = []
    for name in ("__add__", "__radd__", "__abs__"):
        original = getattr(Fraction, name)

        def counting(*args, _original=original):
            arithmetic.append(args)
            return _original(*args)

        monkeypatch.setattr(Fraction, name, counting)
    t = canonical_table()
    t.entry(2000)
    monkeypatch.undo()
    assert arithmetic == []
    first = {}
    for _, u, _ in t.prefix(2000):
        assert first.setdefault(u, u) is u
    assert 2000 - len(first) > 250  # recurrences: 269 of the 2,000 entries


def naive_stream(count):
    """The first ``count`` (vector, tag) entries from the definition:
    ``iter_level``'s SparseVecs, tags max(a_{k-1} + 1, largest index + 1,
    ceil(l1)) with the l1 norm summed in Fractions."""
    out, prev = [], 0
    for level in itertools.count(1):
        for u in iter_level(level):
            tag = prev + 1
            if not u.is_zero():
                tag = max(tag, max(u.support(), default=0) + 1, math.ceil(l1_norm(u)))
            out.append((u, tag))
            prev = tag
            if len(out) == count:
                return out


def test_stream_matches_naive_definition():
    """Vectors, tags and occurrence lists over the first 5,000 entries."""
    t = canonical_table()
    expected = naive_stream(5000)
    assert [(u, a) for _, u, a in t.prefix(5000)] == expected
    occurrences = {}
    for k, (u, _) in enumerate(expected, 1):
        occurrences.setdefault(u, []).append(k)
    assert any(len(ks) > 2 for ks in occurrences.values())
    for u, ks in occurrences.items():
        assert t.occurrence_positions(u, 5000) == ks
        assert t.occurrence_positions(u, 700) == [k for k in ks if k <= 700]


def test_negative_k_is_rejected():
    t = ConstructionTable(depth_budget=100)
    t.entry(50)
    for k in (-1, -5):
        with pytest.raises(ValueError, match="k must be >= 0"):
            t.tag(k)
        with pytest.raises(ValueError, match="k must be >= 0"):
            t.weight_tail_bound(k)
    assert t.tag(0) == 0
    lo, hi = t.weight_tail_bound(0)
    assert 0 < lo <= hi < 1
