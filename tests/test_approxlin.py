import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxinorm.approxlin import (
    REASON_DOMINATED,
    REASON_PROBE_SUPPORT,
    REASON_SUP_ACTIVE,
    LinearityReport,
    build_report,
    coherence_margin,
    span_match_feasible,
    verify_linearity_bound,
)
from proxinorm.errors import HypothesisError, PreconditionError
from proxinorm.gateaux import dminus_norm, dplus_norm
from proxinorm.bits import bits_for_target
from proxinorm.descent import Subspace, build_probes
from proxinorm.vectors import SparseVec, format_rational, pair, parse_rational, sgn

DEPTH = 60


def std_probes():
    return [
        SparseVec({1: Fraction(1, 2), 2: -1}),
        SparseVec({1: 1, 2: Fraction(-1, 2)}),
        SparseVec({1: 1}),
    ]


def std_x():
    return SparseVec({1: Fraction(2, 3), 2: Fraction(-1, 4), 5: Fraction(1, 2)})


def test_report_basic_shape(table):
    rep = build_report(table, std_x(), std_probes(), DEPTH)
    assert rep.usable
    for i in rep.usable:
        k = rep.index_position[i]
        assert table.tag(k) == i
        assert table.entry(k)[0] == rep.probes[rep.block[i]]


def test_gamma_signs_oppose_pairings(table):
    rep = build_report(table, std_x(), std_probes(), DEPTH)
    for i in rep.usable:
        j = rep.block[i]
        assert sgn(rep.gamma[i]) == -sgn(pair(rep.x, rep.probes[j]))
        assert abs(rep.gamma[i]) == Fraction(1, 1 << i * i)


def test_epsilon_bounds_bracket_exact_head(table):
    rep = build_report(table, std_x(), std_probes(), DEPTH)
    for i in rep.usable:
        k = rep.index_position[i]
        head = Fraction(0)
        for l in range(k + 1, k + 51):
            a = table.tag(l)
            head += Fraction(1, 1 << a * a)
        scaled = head * (1 << i * i)
        assert 0 < rep.eps_lo[i] <= scaled <= rep.eps_hi[i]


def test_epsilon_decreasing_along_prefix(table):
    rep = build_report(table, std_x(), std_probes(), DEPTH)
    ordered = sorted(rep.usable)
    for a, b in zip(ordered, ordered[1:]):
        assert rep.eps_lo[a] > rep.eps_lo[b]
        assert rep.eps_hi[a] > rep.eps_hi[b]


def test_exclusion_reasons(table):
    # Tag 3 carries probe -e1; make x peak there, put 3 in another probe's
    # support, and dominate tag 4 (probe e1) with a large x coordinate.
    probes = [-SparseVec.unit(1), SparseVec({1: 1, 3: 1}), SparseVec.unit(1)]
    x = SparseVec({1: 1, 3: 5, 4: 4})
    rep = build_report(table, x, probes, DEPTH)
    assert REASON_SUP_ACTIVE in rep.excluded[3]
    assert REASON_PROBE_SUPPORT in rep.excluded[3]
    assert REASON_DOMINATED in rep.excluded[4]  # |x_4| = 4 >= |<x, e1>| = 1
    for i, reasons in rep.excluded.items():
        assert reasons, f"excluded index {i} carries no reason"
        assert set(reasons) <= {REASON_SUP_ACTIVE, REASON_PROBE_SUPPORT, REASON_DOMINATED}
        assert i not in rep.usable


def test_exclusions_stabilize_with_depth(table):
    probes = std_probes()
    x = std_x()
    early = build_report(table, x, probes, 250)
    late = build_report(table, x, probes, 500)
    assert early.excluded == late.excluded


def test_zero_pairing_is_hard_error(table):
    x = SparseVec.unit(5)
    with pytest.raises(HypothesisError):
        build_report(table, x, [SparseVec.unit(1)], DEPTH)


def test_duplicate_probes_rejected(table):
    with pytest.raises(PreconditionError):
        build_report(table, std_x(), [SparseVec.unit(1), SparseVec.unit(1)], DEPTH)


@pytest.mark.parametrize("depth", [0, -5])
def test_depth_below_one_rejected(table, depth):
    with pytest.raises(PreconditionError, match="depth must be >= 1"):
        build_report(table, std_x(), [SparseVec.unit(1)], depth)


def test_verify_zero_direction(table):
    rep = build_report(table, std_x(), std_probes(), DEPTH)
    lhs, rhs, ok = verify_linearity_bound(table, std_x(), rep, SparseVec.zero())
    assert ok and lhs.hi == 0 and rhs == 0
    assert rep.trials and rep.trials[-1].passed
    assert rep.trials[-1].to_json() == {
        "v": {}, "lhs": {"lo": "0", "hi": "0", "depth": 1}, "rhs": "0", "pass": True,
    }


def test_verify_single_coordinates(table):
    x = std_x()
    rep = build_report(table, x, std_probes(), DEPTH)
    for i in rep.usable:
        _, _, ok = verify_linearity_bound(table, x, rep, SparseVec.unit(i))
        assert ok


def test_verify_random_directions(table):
    x = std_x()
    rep = build_report(table, x, std_probes(), DEPTH)
    rng = random.Random(11)
    choices = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2)]
    for _ in range(12):
        picks = rng.sample(list(rep.usable), rng.randint(1, min(3, len(rep.usable))))
        v = SparseVec({i: rng.choice(choices) for i in picks})
        _, _, ok = verify_linearity_bound(table, x, rep, v)
        assert ok


def test_verify_rejects_outside_support(table):
    rep = build_report(table, std_x(), std_probes(), DEPTH)
    with pytest.raises(PreconditionError):
        verify_linearity_bound(table, std_x(), rep, SparseVec.unit(1))


def test_sign_coherence_single_coordinate(table):
    x = std_x()
    rep = build_report(table, x, std_probes(), DEPTH)
    i = rep.usable[0]
    assert rep.eps_hi[i] < 1
    assert coherence_margin(rep, SparseVec.unit(i)) > 0


def test_sign_coherence_false_on_cancellation(table):
    x = std_x()
    rep = build_report(table, x, std_probes(), DEPTH)
    i, j = rep.usable[0], rep.usable[1]
    v = SparseVec({i: 1 / rep.gamma[i], j: -1 / rep.gamma[j]})
    assert pair(v, rep.gamma_vec()) == 0
    assert coherence_margin(rep, v) <= 0


def test_sign_coherence_implies_matching_definite_signs(table):
    x = std_x()
    rep = build_report(table, x, std_probes(), DEPTH)
    for i in rep.usable:
        v = SparseVec.unit(i)
        margin = coherence_margin(rep, v)
        assert margin > 0
        bits = bits_for_target(margin / 4)
        dp = dplus_norm(table, x, v, bits)
        dm = dminus_norm(table, x, v, bits)
        assert dp.sign() != 0
        assert dp.sign() == dm.sign()
        assert dp.sign() == (1 if pair(v, rep.gamma_vec()) > 0 else -1)


def test_span_match_gamma_itself(table):
    rep = build_report(table, std_x(), std_probes(), DEPTH)
    ok, coeffs = span_match_feasible(rep, [rep.gamma_vec()], rep.usable)
    assert ok and coeffs == SparseVec({1: 1})


def test_span_match_unreachable_functional(table):
    rep = build_report(table, std_x(), std_probes(), DEPTH)
    assert any(rep.eps_hi[i] < 1 for i in rep.usable)
    ok, coeffs = span_match_feasible(rep, [SparseVec.unit(999)], rep.usable)
    assert not ok and coeffs is None


def test_span_match_witness_omits_a_functional_off_the_indices(table):
    """A functional with no coefficient on the chosen indices is in no row;
    it gets weight 0, which the witness omits."""
    rep = build_report(table, std_x(), std_probes(), DEPTH)
    off = SparseVec.unit(999)
    assert all(off[i] == 0 for i in rep.usable)
    ok, coeffs = span_match_feasible(rep, [off, rep.gamma_vec()], rep.usable)
    assert ok and coeffs == SparseVec({2: 1})
    ok, coeffs = span_match_feasible(rep, [rep.gamma_vec(), off], rep.usable)
    assert ok and coeffs == SparseVec({1: 1})


def test_span_match_monotone_in_indices(table):
    rep = build_report(table, std_x(), std_probes(), DEPTH)
    phi = SparseVec.unit(999)
    small = list(rep.usable)[:1]
    ok_small, _ = span_match_feasible(rep, [phi], small)
    ok_full, _ = span_match_feasible(rep, [phi], rep.usable)
    assert not ok_small and not ok_full  # growing the set never flips to sat


@pytest.mark.parametrize("spoil", [
    lambda i: i + 0.5,  # used to be truncated back to a usable index
    lambda i: Fraction(2 * i + 1, 2),
    str,
    lambda i: True,
], ids=["float", "fraction", "string", "bool"])
def test_span_match_rejects_non_integer_indices(table, spoil):
    rep = build_report(table, std_x(), std_probes(), DEPTH)
    with pytest.raises(PreconditionError, match="indices must be integers"):
        span_match_feasible(rep, [rep.gamma_vec()], [spoil(rep.usable[0])])


def test_report_json_roundtrip(table):
    x = std_x()
    rep = build_report(table, x, std_probes(), DEPTH)
    verify_linearity_bound(table, x, rep, SparseVec.unit(rep.usable[0]))
    restored = LinearityReport.from_json(rep.to_json())
    assert restored.usable == rep.usable
    assert restored.gamma == rep.gamma
    assert restored.eps_lo == rep.eps_lo
    assert restored.eps_hi == rep.eps_hi
    assert restored.excluded == rep.excluded


# -- the dyadic margin arithmetic against the naive Fraction formula ----------


def naive_budget(report, v, upper):
    eps = report.eps_hi if upper else report.eps_lo
    total = Fraction(0)
    for i, vi in v.items():
        total += eps[i] * abs(vi * report.gamma[i])
    return total


def assert_matches_naive(table, report, v):
    budget = {upper: naive_budget(report, v, upper) for upper in (False, True)}
    margin = abs(pair(v, report.gamma_vec())) - budget[True]
    assert coherence_margin(report, v) == margin
    _, rhs, _ = verify_linearity_bound(table, report.x, report, v)
    assert rhs == budget[False]


@pytest.fixture(scope="module")
def criterion6_reports(table, criterion6_starts):
    """The first-step reports of the criterion-6 descent on ker(e1, e2)."""
    H = Subspace([SparseVec.unit(1), SparseVec.unit(2)])
    return [build_report(table, x, build_probes(table, H, x), 500) for x in criterion6_starts]


def json_report(gamma, eps_lo, eps_hi):
    """A report read back with ``from_json``, with arbitrary gamma and eps."""
    idx = sorted(gamma)
    return LinearityReport.from_json(
        {
            "x": {"1": "1"},
            "probes": [{"1": "1"}],
            "depth": 10,
            "indices": {str(i): k for k, i in enumerate(idx, start=1)},
            "block": {str(i): 0 for i in idx},
            "usable": idx,
            "excluded": {},
            "gamma": {str(i): format_rational(g) for i, g in gamma.items()},
            "eps_lower": {str(i): format_rational(e) for i, e in eps_lo.items()},
            "eps_upper": {str(i): format_rational(e) for i, e in eps_hi.items()},
        }
    )


coefficients = st.fractions(min_value=-40, max_value=40, max_denominator=12).filter(
    lambda f: f != 0
)
small = st.fractions(min_value=-3, max_value=3, max_denominator=40)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_margin_arithmetic_matches_naive_on_criterion6_reports(table, criterion6_reports, data):
    report = data.draw(st.sampled_from(criterion6_reports))
    support = data.draw(st.lists(st.sampled_from(report.usable), max_size=4, unique=True))
    v = SparseVec({i: data.draw(coefficients) for i in support})
    assert_matches_naive(table, report, v)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_margin_arithmetic_matches_naive_on_non_dyadic_reports(table, data):
    idx = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True))
    gamma = {i: data.draw(small) for i in idx}
    eps_lo = {i: data.draw(small) for i in idx}
    eps_hi = {i: data.draw(small) for i in idx}
    report = json_report(gamma, eps_lo, eps_hi)
    support = data.draw(st.lists(st.sampled_from(idx), max_size=5, unique=True))
    v = SparseVec({i: data.draw(coefficients) for i in support})
    assert_matches_naive(table, report, v)


def test_margin_arithmetic_on_exact_cancellation(table):
    report = json_report(
        {3: Fraction(1, 3), 5: Fraction(-2, 3)},
        {3: Fraction(1, 5), 5: Fraction(1, 7)},
        {3: Fraction(2, 5), 5: Fraction(3, 7)},
    )
    v = SparseVec({3: 2, 5: 1})
    assert pair(v, report.gamma_vec()) == 0
    assert coherence_margin(report, v) == -(Fraction(2, 5) * Fraction(2, 3) + Fraction(3, 7) * Fraction(2, 3))
    assert coherence_margin(report, v) <= 0
    assert_matches_naive(table, report, v)
    assert coherence_margin(report, SparseVec.zero()) == 0


def test_margin_arithmetic_on_round_tripped_report_with_odd_factors(table, criterion6_reports):
    obj = criterion6_reports[0].to_json()
    for key, factor in (("gamma", Fraction(7, 3)), ("eps_lower", Fraction(3, 5)), ("eps_upper", Fraction(5, 9))):
        obj[key] = {i: format_rational(parse_rational(e) * factor) for i, e in obj[key].items()}
    report = LinearityReport.from_json(obj)
    assert all(g.denominator % 3 == 0 for g in report.gamma.values())
    u = report.usable
    for v in (SparseVec.unit(u[0]), SparseVec({u[0]: 1, u[-1]: -2}), SparseVec({i: 1 for i in u})):
        assert_matches_naive(table, report, v)


def test_eps_is_the_tail_bound_over_the_weight(table, criterion6_reports):
    for report in criterion6_reports:
        assert report.usable
        for i in report.usable:
            k = report.index_position[i]
            lo, hi = table.weight_tail_bound(k)
            weight = Fraction(1, 2 ** (i * i))
            assert report.eps_lo[i] == lo / weight
            assert report.eps_hi[i] == hi / weight

