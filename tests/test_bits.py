"""Differential tests of the dyadic helpers against naive Fraction oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxinorm.bits import (
    dyadic_parts,
    dyadic_sum,
    floor_pow2,
    round_dyadic,
    scale_pow2,
    split_pow2,
)

terms = st.lists(
    st.tuples(st.integers(-10**6, 10**6), st.integers(1, 1000), st.integers(0, 300)),
    max_size=12,
)
positive = st.fractions(min_value=Fraction(1, 10**30), max_value=10**30).filter(
    lambda f: f > 0
)


def naive_sum(ts):
    return sum((Fraction(n, q * 2**e) for n, q, e in ts), Fraction(0))


@settings(max_examples=300, deadline=None)
@given(terms)
def test_dyadic_sum_matches_termwise_fraction_sum(ts):
    assert dyadic_sum(ts) == naive_sum(ts)


@settings(max_examples=100, deadline=None)
@given(terms)
def test_dyadic_sum_cancels_to_zero(ts):
    both = ts + [(-n, q, e) for n, q, e in reversed(ts)]
    result = dyadic_sum(both)
    assert result == 0 and result.denominator == 1


@settings(max_examples=300, deadline=None)
@given(terms)
def test_dyadic_sign_is_the_sign_of_the_sum(ts):
    """``approxlin.coherence_margin`` reads the sign of a sum off the
    numerator of :func:`dyadic_parts`, without building the Fraction."""
    total = naive_sum(ts)
    assert numerator_sign(ts) == (total > 0) - (total < 0)


def numerator_sign(ts):
    num = dyadic_parts(ts)[0]
    return (num > 0) - (num < 0)


def test_dyadic_sign_edge_cases():
    assert numerator_sign([]) == 0
    assert numerator_sign([(1, 3, 200), (-1, 3, 200)]) == 0
    assert numerator_sign([(1, 1, 400), (-1, 1, 0), (1, 1, 0)]) == 1
    assert numerator_sign(iter([(-1, 5, 300)])) == -1


def test_dyadic_sum_edge_cases():
    assert dyadic_sum([]) == 0
    assert dyadic_sum(iter([(3, 1, 0)])) == 3
    assert dyadic_sum([(1, 3, 200), (-1, 3, 200)]) == 0
    # the shift never cancels more than the largest power of two present
    assert dyadic_sum([(4, 1, 1), (4, 1, 1)]) == 4
    assert dyadic_sum([(-1, 6, 2), (1, 10, 0)]) == Fraction(-1, 24) + Fraction(1, 10)


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=-(10**6), max_value=10**6), st.integers(0, 200), st.booleans())
def test_round_dyadic_is_directed_and_on_grid(value, bits, up):
    r = round_dyadic(value, bits, up)
    grain = Fraction(1, 2**bits)
    assert (r / grain).denominator == 1
    if up:
        assert value <= r < value + grain
    else:
        assert value - grain < r <= value


@settings(max_examples=100, deadline=None)
@given(st.integers(-(10**9), 10**9), st.integers(0, 200), st.booleans())
def test_round_dyadic_is_exact_on_grid_points(num, bits, up):
    value = Fraction(num, 2**bits)
    assert round_dyadic(value, bits, up) == value


@settings(max_examples=300, deadline=None)
@given(positive)
def test_floor_pow2_is_the_largest_power_below(f):
    p = floor_pow2(f)
    assert p <= f < 2 * p
    assert p.numerator == 1 or p.denominator == 1
    assert (p.numerator * p.denominator) & (p.numerator * p.denominator - 1) == 0


@given(st.integers(-300, 300))
def test_floor_pow2_is_exact_on_powers_of_two(k):
    assert floor_pow2(Fraction(2) ** k) == Fraction(2) ** k


@pytest.mark.parametrize("bad",[Fraction(0), Fraction(-1, 2)])
def test_floor_pow2_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        floor_pow2(bad)


@settings(max_examples=300, deadline=None)
@given(terms)
def test_dyadic_parts_are_a_common_denominator_form_of_the_sum(ts):
    num, lcm_q, E = dyadic_parts(ts)
    assert Fraction(num, lcm_q << E) == naive_sum(ts)
    assert all(lcm_q % q == 0 for _, q, _ in ts)
    assert E == max((e for _, _, e in ts), default=0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**40))
def test_split_pow2_gives_odd_part_and_exponent(d):
    q, s = split_pow2(d)
    assert q % 2 == 1 and q << s == d


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=-(10**6), max_value=10**6), st.integers(0, 300))
def test_scale_pow2_multiplies_by_a_power_of_two(value, e):
    assert scale_pow2(value, e) == value * 2**e
    assert scale_pow2(value * Fraction(1, 2**e), e) == value


def test_scale_pow2_on_grain_rounded_tail_bounds():
    lo = Fraction(12345, 2**2000)
    assert scale_pow2(lo, 1900) == Fraction(12345, 2**100)
    assert scale_pow2(Fraction(3, 2**5), 9) == 48
    assert scale_pow2(Fraction(5, 3 * 2**4), 4) == Fraction(5, 3)
