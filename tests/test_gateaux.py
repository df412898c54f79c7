import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interval_distance
from proxinorm.gateaux import (
    derivative_from_json,
    derivative_to_json,
    dminus_norm,
    dplus_enclosure_at_depth,
    dplus_norm,
    dplus_sup,
)
from proxinorm.norms import norm_enclosure
from proxinorm.vectors import SparseVec, bits_for_target, sup_norm

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=16)
vectors = st.dictionaries(st.integers(1, 12), rationals, max_size=5).map(SparseVec)


def sup_quotient(x, u, h):
    """Exact forward-difference quotient of the sup norm (FD oracle)."""
    return (sup_norm(x + u.scale(h)) - sup_norm(x)) / h


def test_dplus_sup_at_origin():
    assert dplus_sup(SparseVec.zero(), SparseVec({2: 3})) == 3


def test_dplus_sup_outward_coordinate_with_fd_oracle():
    x = SparseVec({1: 2, 2: -2, 3: 1})
    u = SparseVec({1: 1, 2: 1})
    assert dplus_sup(x, u) == 1
    h = Fraction(1, 1 << 20)
    assert sup_quotient(x, u, h) == 1


def test_dplus_sup_inward_with_fd_oracle():
    x, u = SparseVec.unit(1), -SparseVec.unit(1)
    assert dplus_sup(x, u) == -1
    for j in (1, 5, 19):
        h = Fraction(1, 1 << j)
        # ||(1-h) e1|| - 1 = -h exactly for 0 < h < 1
        assert sup_quotient(x, u, h) == -1


def test_dplus_sup_zero_direction_entry_at_maximizer():
    # The only maximizing coordinate has u_n = 0: inward case, value 0.
    assert dplus_sup(SparseVec.unit(1), SparseVec.unit(2)) == 0


@settings(max_examples=60)
@given(vectors, vectors)
def test_dplus_sup_matches_small_step_quotient(x, u):
    """For finitely supported data the quotient is exactly linear below the
    first kink, so a tiny exact dyadic step is an exact oracle."""
    h = Fraction(1, 1 << 40)
    assert sup_quotient(x, u, h) == dplus_sup(x, u)


def test_derivative_zero_direction(table):
    enc = dplus_norm(table, SparseVec({1: 2, 5: -1}), SparseVec.zero(), 16)
    assert enc.lo == enc.hi == 0


def test_derivative_at_origin_encloses_norm(table):
    u = SparseVec({1: Fraction(1, 3), 5: 2})
    denc = dplus_norm(table, SparseVec.zero(), u, 50)
    nenc = norm_enclosure(table, u, 50)
    assert denc.lo <= nenc.hi and nenc.lo <= denc.hi


def fd_interval(table, x, u, h, bits):
    nx = norm_enclosure(table, x, bits)
    nxh = norm_enclosure(table, x + u.scale(h), bits)
    return (nxh.lo - nx.hi) / h, (nxh.hi - nx.lo) / h


def test_fd_oracle_converges_into_enclosure(table):
    rng = random.Random(7)
    for _ in range(6):
        x = SparseVec({rng.randint(1, 9): Fraction(rng.randint(-16, 16), rng.randint(1, 8)) for _ in range(3)})
        u = SparseVec({rng.randint(1, 9): Fraction(rng.randint(-16, 16), rng.randint(1, 8)) for _ in range(3)})
        denc = dplus_norm(table, x, u, 80)
        dists = []
        for j in range(10, 25):
            h = Fraction(1, 1 << j)
            lo, hi = fd_interval(table, x, u, h, j + 50)
            dists.append(interval_distance(lo, hi, denc.lo, denc.hi))
        assert dists[-1] <= denc.width() + Fraction(1, 1 << 8) * Fraction(1, 1 << 24)
        # distances settle: the last five steps are inside/at the enclosure
        assert all(d <= dists[9] or d == 0 for d in dists[10:])
        assert dists[-1] <= min(dists)


def test_dminus_zero_direction(table):
    enc = dminus_norm(table, SparseVec({1: 2, 5: -1}), SparseVec.zero(), 16)
    assert enc.lo == enc.hi == 0


def test_dminus_is_reflected_dplus(table):
    rng = random.Random(3)
    for _ in range(4):
        x = SparseVec({rng.randint(1, 8): Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(2)})
        u = SparseVec({rng.randint(1, 8): Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(2)})
        dm = dminus_norm(table, x, u, 40)
        dp = dplus_norm(table, x, -u, 40)
        assert dm.lo == -dp.hi and dm.hi == -dp.lo


def test_dminus_positive_along_growing_ray(table):
    """Left derivative at e1 along e1: the norm increases through t = 1."""
    dm = dminus_norm(table, SparseVec.unit(1), SparseVec.unit(1), 30)
    assert dm.sign() == 1
    # backward-difference oracle: (f(x) - f(x - t u)) / t
    x = SparseVec.unit(1)
    t = Fraction(1, 1 << 16)
    na = norm_enclosure(table, x, 60)
    nb = norm_enclosure(table, x + x.scale(-t), 60)
    quotient_lo = (na.lo - nb.hi) / t
    assert quotient_lo > 0


@settings(max_examples=20, deadline=None)
@given(vectors, vectors, st.fractions(min_value=Fraction(1, 8), max_value=3, max_denominator=8))
def test_positive_homogeneity_in_direction(table, x, u, q):
    depth = 9
    base = dplus_enclosure_at_depth(table, x, u, depth)
    scaled = dplus_enclosure_at_depth(table, x, u.scale(q), depth)
    assert scaled.lo == q * base.lo and scaled.hi == q * base.hi


@settings(max_examples=20, deadline=None)
@given(vectors, vectors, vectors)
def test_subadditivity_in_direction(table, x, u, v):
    p = 40
    duv = dplus_norm(table, x, u + v, p)
    du = dplus_norm(table, x, u, p)
    dv = dplus_norm(table, x, v, p)
    assert duv.midpoint() <= du.hi + dv.hi + duv.width() / 2


@settings(max_examples=20, deadline=None)
@given(vectors, vectors)
def test_convexity_one_sided_order(table, x, u):
    """d_minus <= d_plus, up to enclosure widths."""
    p = 40
    du = dplus_norm(table, x, u, p)
    dnu = dplus_norm(table, x, -u, p)
    assert du.lo + dnu.lo >= -(du.width() + dnu.width())


@settings(max_examples=30, deadline=None)
@given(vectors, vectors, st.fractions(min_value=0, max_value=1, max_denominator=1 << 80).filter(lambda w: 0 < w < 1))
def test_enclosure_width_below_target_through_bits(table, x, u, w):
    """A width target becomes a precision with ``bits_for_target``; both
    enclosures are then strictly narrower than the target."""
    bits = bits_for_target(w)
    assert norm_enclosure(table, x, bits).width() < w
    assert dplus_norm(table, x, u, bits).width() < w


def test_derivative_enclosure_json_roundtrip(table):
    enc = dplus_norm(table, SparseVec.unit(1), SparseVec({1: 1, 3: -2}), 24)
    assert derivative_from_json(derivative_to_json(enc)) == enc
    assert derivative_to_json(enc)["sign"] in ("positive", "negative", "straddles_zero")
