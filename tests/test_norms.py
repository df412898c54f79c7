from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxinorm.errors import PreconditionError
from proxinorm.norms import DEFAULT_PRECISION_BITS, Enclosure, enclosure_at_depth, norm_enclosure
from proxinorm.vectors import SparseVec, sup_norm

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=16)
vectors = st.dictionaries(st.integers(1, 12), rationals, max_size=5).map(SparseVec)
nonzero_vectors = vectors.filter(lambda v: not v.is_zero())


def test_zero_vector_encloses_exactly_zero(table):
    enc = norm_enclosure(table, SparseVec.zero(), 8)
    assert enc.lo == enc.hi == 0


def test_unit_vector_within_equivalence_band(table):
    enc = norm_enclosure(table, SparseVec.unit(1), 8)
    assert enc.lo >= 1 and enc.hi <= 3


def test_deeper_truncation_oracle_intersects(table):
    enc = norm_enclosure(table, SparseVec.unit(1), 30)
    deeper = enclosure_at_depth(table, SparseVec.unit(1), 2 * enc.depth)
    assert enc.lo <= deeper.hi and deeper.lo <= enc.hi
    assert deeper.width() <= enc.width()


def test_width_meets_precision(table):
    x = SparseVec({1: Fraction(7, 3), 4: Fraction(-1, 5)})
    for bits in (8, 16, 64):
        enc = norm_enclosure(table, x, bits)
        assert enc.width() < Fraction(1, 1 << bits)


def test_equivalence_for_unit_vectors(table):
    for j in range(1, 21):
        enc = norm_enclosure(table, SparseVec.unit(j), DEFAULT_PRECISION_BITS)
        assert enc.lo >= 1 and enc.hi <= 3


@settings(max_examples=30, deadline=None)
@given(nonzero_vectors)
def test_equivalence_random(table, x):
    """sup_norm(x) <= lo and hi <= 3 * sup_norm(x), certified."""
    enc = norm_enclosure(table, x, DEFAULT_PRECISION_BITS)
    s = sup_norm(x)
    assert enc.lo >= s and enc.hi <= 3 * s


@settings(max_examples=20, deadline=None)
@given(nonzero_vectors)
def test_sharper_upper_bound_via_series_constant(table, x):
    """The certified hi never exceeds sup * (1 + the full series bound)."""
    enc = norm_enclosure(table, x, DEFAULT_PRECISION_BITS)
    assert enc.hi <= sup_norm(x) * (1 + table.tail_bound(0))


@settings(max_examples=25, deadline=None)
@given(nonzero_vectors, st.fractions(min_value=-3, max_value=3, max_denominator=8).filter(lambda q: q != 0))
def test_absolute_homogeneity_at_fixed_depth(table, x, q):
    depth = 9
    base = enclosure_at_depth(table, x, depth)
    scaled = enclosure_at_depth(table, x.scale(q), depth)
    assert scaled.lo == abs(q) * base.lo
    assert scaled.hi == abs(q) * base.hi


@settings(max_examples=25, deadline=None)
@given(vectors, vectors)
def test_triangle_inequality_on_enclosures(table, x, y):
    p = 32
    ex = norm_enclosure(table, x, p)
    ey = norm_enclosure(table, y, p)
    exy = norm_enclosure(table, x + y, p)
    assert exy.hi <= ex.hi + ey.hi + Fraction(2, 1 << p)


def test_widths_never_increase_with_depth(table):
    x = SparseVec({2: Fraction(5, 7), 3: -2})
    widths = [enclosure_at_depth(table, x, K).width() for K in range(1, 25)]
    assert all(w1 >= w2 for w1, w2 in zip(widths, widths[1:]))


def test_enclosures_at_different_depths_intersect(table):
    x = SparseVec({1: Fraction(5, 7), 6: -2})
    encs = [enclosure_at_depth(table, x, K) for K in (1, 3, 9, 27)]
    for a in encs:
        for b in encs:
            assert a.lo <= b.hi and b.lo <= a.hi


def test_enclosure_json_roundtrip(table):
    enc = norm_enclosure(table, SparseVec.unit(2), 16)
    assert Enclosure.from_json(enc.to_json()) == enc


def test_precision_cap_rejected(table):
    with pytest.raises(PreconditionError):
        norm_enclosure(table, SparseVec.unit(1), 1 << 21)
