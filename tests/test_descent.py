import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxinorm import demo, descent
from proxinorm.approxlin import (
    REPORT_DEPTH,
    LinearityReport,
    _margin_parts,
    build_report,
    coherence_margin,
)
from proxinorm.construction import canonical_table
from proxinorm.demo import build_fan, demo_points, demo_probes
from proxinorm.descent import (
    DescentCertificate,
    DescentChain,
    Subspace,
    _candidate_supports,
    build_probes,
    certify_descent,
    minimizing_sequence,
    verify_chain,
)
from proxinorm.errors import InputFormatError, PreconditionError, SearchBudgetError
from proxinorm.linalg import kernel_directions, rank
from proxinorm.norms import enclosure_at_depth
from proxinorm.vectors import Enclosure, SparseVec, dyadic_sum, format_rational, pair


def codim2_subspace():
    return Subspace([SparseVec.unit(1), SparseVec.unit(2)])


def generic_point():
    return SparseVec({1: Fraction(2, 3), 2: Fraction(-1, 4), 5: Fraction(1, 2), 8: Fraction(-3, 7)})


def test_subspace_requires_independence():
    with pytest.raises(PreconditionError):
        Subspace([SparseVec.unit(1), SparseVec.unit(1).scale(2)])
    with pytest.raises(PreconditionError):
        Subspace([SparseVec.zero()])


def test_subspace_membership():
    H = codim2_subspace()
    assert H.contains(SparseVec.unit(3))
    assert not H.contains(SparseVec.unit(1))


def test_probes_are_admissible(table):
    H = codim2_subspace()
    x = generic_point()
    probes = build_probes(table, H, x)
    assert len(probes) == H.codimension + 1
    assert len(set(probes)) == len(probes)
    for z in probes:
        assert pair(x, z) != 0
        assert table.occurrence_positions(z, descent.REPORT_DEPTH)


def test_sign_evidence_holds_only_matching_definite_signs():
    """Evidence is the two derivative enclosures and the step cap; it
    rejects a sign the enclosures leave open, signs that disagree and a
    cap that is not positive, also under python -O."""
    neg, pos = Enclosure(Fraction(-3), Fraction(-1), 5), Enclosure(Fraction(1), Fraction(2), 5)
    straddle = Enclosure(Fraction(-1), Fraction(1), 5)
    evidence = descent.SignEvidence(neg, neg, Fraction(1, 8))
    assert [f.name for f in dataclasses.fields(evidence)] == ["d_plus", "d_minus", "step_cap"]
    assert evidence.shared_sign == -1
    for d_plus, d_minus, cap in [(straddle, straddle, 1), (neg, pos, 1), (pos, pos, 0), (pos, pos, -1)]:
        with pytest.raises(PreconditionError):
            descent.SignEvidence(d_plus, d_minus, Fraction(cap))


def _candidates(report, subspace):
    size = subspace.codimension + 1
    for support in _candidate_supports(report.usable, size):
        yield from kernel_directions(subspace.functionals, support)


def search(table, subspace, x):
    """The direction search of ``minimizing_sequence``, run at x from its
    blocks: (v, margin, evidence, report), or None when the report has too
    few usable indices or no candidate has a positive margin."""
    report = build_report(table, x, build_probes(table, subspace, x), REPORT_DEPTH)
    if len(report.usable) < subspace.codimension + 1:
        return None
    best = descent._best_direction(report, _candidates(report, subspace))
    if best is None:
        return None
    margin, v = best
    return v, margin, descent._sign_evidence(table, x, v, report, margin, None), report


def test_find_direction_codim2(table):
    H = codim2_subspace()
    x = generic_point()
    found = search(table, H, x)
    assert found is not None
    v, margin, evidence, report = found
    assert H.contains(v)  # exact kernel membership
    assert margin > 0
    assert evidence.d_plus.sign() in (1, -1)
    assert evidence.d_plus.sign() == evidence.d_minus.sign()
    assert set(v.support()) <= set(report.usable)
    # evidence equal to the previous step's reuses its enclosure objects
    again = descent._sign_evidence(table, x, v, report, margin, evidence)
    assert again == evidence and again.d_plus is evidence.d_plus and again.d_minus is evidence.d_minus


def _reference_best(report, candidates):
    """Brute-force search in Fractions: score every candidate, repeats
    included; the first of the largest positive margins wins."""
    best = None
    for v in candidates:
        margin = coherence_margin(report, v)
        if margin > 0 and (best is None or margin > best[0]):
            best = (margin, v)
    return best


def test_find_direction_scores_each_direction_once(table, criterion6_starts, monkeypatch):
    H = codim2_subspace()
    scored, normalised = [], []

    def counting(report, v):
        scored.append(v)
        return _margin_parts(report, v)

    def counting_sum(terms):
        normalised.append(terms)
        return dyadic_sum(terms)

    monkeypatch.setattr(descent, "_margin_parts", counting)
    monkeypatch.setattr(descent, "dyadic_sum", counting_sum)
    for x0 in criterion6_starts[:3]:
        scored.clear()
        normalised.clear()
        v, margin, _, report = search(table, H, x0)
        candidates = list(_candidates(report, H))
        assert len(set(candidates)) < len(candidates)
        assert len(scored) == len(set(scored)) and set(scored) == set(candidates)
        # only the winner's margin becomes a Fraction, from the parts it was scored by
        assert normalised == [[_margin_parts(report, v)]]
        assert (margin, v) == _reference_best(report, candidates)


def _non_dyadic(report, data):
    """The report through JSON with gamma and eps_upper redrawn: nonzero
    rationals and nonnegative ones whose denominators need not be powers
    of 2, large enough that many margins are not positive."""
    obj = json.loads(json.dumps(report.to_json()))
    for i in obj["gamma"]:
        g = data.draw(st.fractions(-4, 4, max_denominator=45).filter(bool), label=f"gamma {i}")
        e = data.draw(st.fractions(0, 3, max_denominator=45), label=f"eps {i}")
        obj["gamma"][i], obj["eps_upper"][i] = format_rational(g), format_rational(e)
    return LinearityReport.from_json(obj)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9), st.booleans(), st.data())
def test_integer_scoring_picks_the_fraction_argmax(criterion6_reports, start, dyadic, data):
    """On criterion-6 reports and round-tripped non-dyadic ones, the integer
    scorer returns what the Fraction argmax does: ties (v and -v have one
    margin) go to the first, and a set with no positive margin gives None."""
    report = criterion6_reports[start]
    if not dyadic:
        report = _non_dyadic(report, data)
    entries = st.fractions(-3, 3, max_denominator=6)
    base = data.draw(st.lists(
        st.lists(st.sampled_from(report.usable), min_size=0, max_size=3, unique=True).flatmap(
            lambda supp: st.lists(entries, min_size=len(supp), max_size=len(supp)).map(
                lambda vals: SparseVec(dict(zip(supp, vals))))),
        min_size=1, max_size=5), label="base")
    picks = data.draw(st.lists(st.tuples(st.integers(0, len(base) - 1), st.booleans()),
                               max_size=12), label="picks")
    candidates = [-base[j] if negate else base[j] for j, negate in picks]
    assert descent._best_direction(report, candidates) == _reference_best(report, candidates)


def test_integer_scoring_ties_and_nonpositive_sets(criterion6_reports):
    report = criterion6_reports[0]
    v = SparseVec.unit(report.usable[0])
    assert descent._best_direction(report, [v, -v]) == (coherence_margin(report, v), v)
    assert descent._best_direction(report, [-v, v]) == (coherence_margin(report, v), -v)
    assert descent._best_direction(report, [SparseVec.zero()]) is None
    assert descent._best_direction(report, []) is None
    w = SparseVec.unit(report.usable[1])  # a larger index: a smaller |gamma|
    assert descent._best_direction(report, [w, v])[1] == v


def test_find_direction_rejects_point_inside_subspace(table, monkeypatch):
    """The search never starts at a point of H: the precondition fails
    before a probe is built."""

    def no_probes(*args):
        raise AssertionError("probes built for a point inside the subspace")

    monkeypatch.setattr(descent, "build_probes", no_probes)
    with pytest.raises(PreconditionError, match="lies in the subspace"):
        minimizing_sequence(table, codim2_subspace(), SparseVec.unit(5), 3)


def test_certify_descent_step_and_sign(table):
    H = codim2_subspace()
    x = generic_point()
    v, _, evidence, _ = search(table, H, x)
    cert = certify_descent(table, H, x, v, evidence, None)
    # step sign opposes the shared derivative sign
    assert (cert.h < 0) == (evidence.shared_sign > 0)
    assert cert.norm_after.hi < cert.norm_before.lo
    # dyadic step
    h = abs(cert.h)
    assert h.numerator == 1 and (h.denominator & (h.denominator - 1)) == 0


def test_decrease_tracks_first_order_prediction(table):
    """|norm drop| is within a factor of 2 of |h| * |midpoint(d)| for the
    certified (small) step."""
    H = codim2_subspace()
    x = generic_point()
    v, _, evidence, _ = search(table, H, x)
    cert = certify_descent(table, H, x, v, evidence, None)
    drop_lo = cert.norm_before.lo - cert.norm_after.hi
    drop_hi = cert.norm_before.hi - cert.norm_after.lo
    d = evidence.d_minus if evidence.shared_sign > 0 else evidence.d_plus
    predicted = abs(cert.h) * abs(d.midpoint())
    assert drop_hi >= predicted / 2
    assert drop_lo <= predicted * 2


def test_minimizing_sequence_codim2(table):
    H = codim2_subspace()
    x0 = generic_point()
    chain = minimizing_sequence(table, H, x0, 6)
    assert len(chain.certificates) == 6
    base = H.pairings(x0)
    for pt in [chain.x0, *(cert.next_point() for cert in chain.certificates)]:
        assert H.pairings(pt) == base  # exact coset preservation
    encs = chain.iterate_enclosures()
    for a, b in zip(encs, encs[1:]):
        assert b.hi < a.lo
    assert verify_chain(table, chain) == []


def test_chain_json_roundtrip(table):
    H = codim2_subspace()
    chain = minimizing_sequence(table, H, generic_point(), 2)
    restored = DescentChain.from_json(chain.to_json())
    assert restored.x0 == chain.x0
    assert len(restored.certificates) == 2
    assert verify_chain(table, restored) == []


def test_a_decoded_chain_shares_one_object_per_repeated_literal(table):
    """Equal JSON in one chain document decodes to one object: x0 and the
    first base point, each iterate's norm_after and the next norm_before,
    and the one direction and its derivative enclosures along the ray."""
    chain = minimizing_sequence(table, codim2_subspace(), generic_point(), 3)
    obj = json.loads(json.dumps(chain.to_json()))
    restored = DescentChain.from_json(obj)
    names = ("x", "v", "norm_before", "norm_after", "d_plus", "d_minus")
    fields = [(obj["x0"], restored.x0)] + [
        (c_obj[name], getattr(cert, name))
        for c_obj, cert in zip(obj["certificates"], restored.certificates) for name in names
    ]
    for i, (json_a, a) in enumerate(fields):
        for json_b, b in fields[:i]:
            assert (a is b) == (json_a == json_b and type(a) is type(b))
    certs = restored.certificates
    assert certs[0].x is restored.x0
    for prev, nxt in zip(certs, certs[1:]):
        assert prev.norm_after is nxt.norm_before and prev.v is nxt.v
    assert restored.to_json() == chain.to_json() and verify_chain(table, restored) == []


@pytest.mark.parametrize("depth", [True, 1.0])
def test_a_repeated_literal_is_read_again_when_its_types_differ(table, depth):
    """A depth of True or 1.0 equals 1 in Python, but it is not a JSON
    integer: the repeat is read, and rejected, as if it came first."""
    data = minimizing_sequence(table, codim2_subspace(), generic_point(), 2).to_json()
    certs = data["certificates"]
    certs[0]["norm_after"]["depth"] = 1
    certs[1]["norm_before"] = dict(certs[0]["norm_after"], depth=depth)
    with pytest.raises(InputFormatError, match=f"enclosure depth must be an integer, got {depth}"):
        DescentChain.from_json(data)


def test_chains_copy_and_pickle_to_an_equal_chain(table):
    chain = minimizing_sequence(table, codim2_subspace(), generic_point(), 2)
    for twin in (copy.deepcopy(chain), pickle.loads(pickle.dumps(chain))):
        assert twin.certificates == chain.certificates and twin.to_json() == chain.to_json()
        assert verify_chain(table, twin) == []


def test_verifier_detects_single_field_tampering(table):
    H = codim2_subspace()
    x = generic_point()
    v, _, evidence, _ = search(table, H, x)
    cert = certify_descent(table, H, x, v, evidence, None)
    assert verify_chain(table, DescentChain(H, x, [cert])) == []

    good = cert.to_json()

    def tampered(mutate):
        data = DescentCertificate.from_json(good).to_json()
        mutate(data)
        return DescentCertificate.from_json(data)

    tampers = [
        lambda d: d["x"].__setitem__("5", "1/3"),
        lambda d: d["v"].__setitem__(str(cert.v.support()[0]), "7"),
        lambda d: d.__setitem__("h", str(cert.h * 2)),
        lambda d: d["norm_before"].__setitem__("lo", "0"),
        lambda d: d["norm_before"].__setitem__("depth", cert.norm_before.depth + 1),
        lambda d: d["norm_after"].__setitem__("hi", "0"),
        lambda d: d["d_plus"].__setitem__("lo", "-1"),
        lambda d: d["d_minus"].__setitem__("hi", "1"),
    ]
    for mutate in tampers:
        try:
            bad = tampered(mutate)
        except Exception:
            continue  # tamper rejected at parse time: also a detection
        assert verify_chain(table, DescentChain(H, x, [bad])) != [], "tamper not detected"


def test_norm_after_tamper_that_fakes_progress_is_caught(table):
    """Lowering norm_after.lo (keeping the decrease look-valid) must fail."""
    H = codim2_subspace()
    chain = minimizing_sequence(table, H, generic_point(), 1)
    data = chain.to_json()
    enc = data["certificates"][0]["norm_after"]
    enc["lo"] = "0"
    bad = DescentChain.from_json(data)
    assert verify_chain(table, bad) != []


def test_minimizing_sequence_codim3(table):
    H = Subspace([SparseVec.unit(1), SparseVec.unit(2), SparseVec.unit(3)])
    x0 = SparseVec({1: Fraction(1, 2), 2: Fraction(-2, 3), 3: Fraction(1, 5), 7: 1})
    chain = minimizing_sequence(table, H, x0, 4)
    assert len(chain.certificates) == 4
    encs = chain.iterate_enclosures()
    assert all(b.hi < a.lo for a, b in zip(encs, encs[1:]))
    assert verify_chain(table, chain) == []


def test_descent_with_functional_supported_on_tag_range(table):
    """Kernel constraints that actually bind on the usable indices."""
    H = Subspace([SparseVec({1: 1, 4: 1}), SparseVec({2: 1, 16: -2})])
    x0 = SparseVec({1: Fraction(3, 4), 2: Fraction(-1, 3), 6: Fraction(1, 2)})
    found = search(table, H, x0)
    assert found is not None
    v, _, evidence, _ = found
    assert H.contains(v)
    cert = certify_descent(table, H, x0, v, evidence, None)
    assert cert.norm_after.hi < cert.norm_before.lo
    assert verify_chain(table, DescentChain(H, x0, [cert])) == []


def test_codim1_search_is_honest(table):
    """Hyperplane case: the search may or may not find a direction, but it
    must never raise and never fabricate evidence."""
    H = Subspace([SparseVec.unit(1)])
    x = SparseVec({1: 1, 3: Fraction(1, 3)})
    found = search(table, H, x)
    if found is not None:
        v, margin, _, _ = found
        assert H.contains(v)
        assert margin > 0


def test_sequence_partial_chain_on_tiny_budget(table, monkeypatch):
    """An impossible probe budget stops the run with a partial (empty) chain
    instead of raising; the probe builder itself reports the exhaustion."""
    H = codim2_subspace()
    monkeypatch.setattr(demo, "REPORT_DEPTH", 2)  # only zero vectors listed that early
    with pytest.raises(SearchBudgetError):
        build_probes(table, H, generic_point())
    chain = minimizing_sequence(table, H, generic_point(), 3)
    assert chain.certificates == []
    assert chain.stop_reason == "probe_budget"


def dense_codim3_subspace():
    return Subspace([
        SparseVec({1: Fraction(1, 3), 2: 1, 3: -1, 4: Fraction(1, 2)}),
        SparseVec({1: -1, 2: Fraction(-1, 2), 3: 1, 4: Fraction(-1, 2)}),
        SparseVec({1: 1, 2: Fraction(-1, 2), 3: Fraction(-2, 3), 4: -1}),
    ])


def test_dense_codimension_3_start_names_its_stop_reason(table):
    """A start that pairs nonzero with three dense functionals, yet leaves
    too few admissible probes: the empty chain says why."""
    chain = minimizing_sequence(table, dense_codim3_subspace(), SparseVec({4: -1}), 3)
    assert (chain.certificates, chain.stop_reason) == ([], "probe_budget")
    assert DescentChain.from_json(chain.to_json()).stop_reason is None  # not on the wire


def test_build_probes_gives_the_pool_each_index_once(table, monkeypatch):
    """Three dense functionals over indices 1..4 reach the pool, which gets
    each index once: listed with repeats, every single would be tried
    three times and every pair nine times."""
    supports = []

    def recording(*args):
        supports.append(list(args[-1]))
        return demo.fan_probes(*args)

    monkeypatch.setattr(descent, "fan_probes", recording)
    with pytest.raises(SearchBudgetError):
        build_probes(table, dense_codim3_subspace(), SparseVec({4: -1}))
    assert supports == [[1, 2, 3, 4]]


@pytest.mark.parametrize("codimension", [1, 3])
def test_pool_repeats_do_not_change_the_chosen_probes(table, codimension):
    """Each distinct pool candidate arrives in the same order whether the
    support lists an index once or several times, so ``fan_probes`` picks
    the same probes; ``count`` is large enough to drain into the pool."""
    H = dense_codim3_subspace()
    fan = build_fan(3, *H.functionals[:2]) if codimension == 3 else ()
    for x in (generic_point(), SparseVec({1: 1, 3: Fraction(-2, 3), 6: 1}), SparseVec({2: 1, 3: 2})):
        def admissible(z, positions):
            return pair(x, z) != 0

        once = demo.fan_probes(table, fan, 12, admissible, [1, 2, 3, 4])
        repeated = demo.fan_probes(table, fan, 12, admissible, [4, 1, 2, 3, 1, 2, 3, 4, 3, 1, 2])
        assert repeated == once and len(once) == 12


def fresh_roundings(f):
    """The rounding ladder of a fan functional's coefficient midpoints,
    computed afresh at every call."""
    target = {i: f.coefficient_interval(i).midpoint() for i in f.support()}
    return tuple(
        SparseVec({i: v.limit_denominator(1 << b) for i, v in target.items()})
        for b in range(demo.ROUNDING_DENOMINATOR_BITS + 1)
    )


def test_cached_fan_rounding_matches_fresh_rounding():
    """Descent and the demo read the ladders of one cached fan, and every
    ladder equals a rounding computed afresh."""
    H = codim2_subspace()
    e1, e2 = SparseVec.unit(1), SparseVec.unit(2)
    assert build_fan(H.codimension, *H.functionals[:2]) is build_fan(2, e1, e2)
    for n in range(2, 7):
        for f in build_fan(n, e1, e2):
            assert f.ladder == fresh_roundings(f)


#: Anchor pairs (phi1, phi2) of the fans below: e1/e2 and dense functionals
#: over indices 1..4.
FAN_ANCHORS = [
    ({"1": "1"}, {"2": "1"}),
    ({"1": "1", "3": "1/2"}, {"2": "1", "4": "-1"}),
    ({"1": "2", "2": "-1", "3": "1"}, {"2": "1", "4": "1/3"}),
    ({"1": "1/2", "4": "1"}, {"1": "1", "2": "1", "3": "1", "4": "1"}),
    ({"1": "1", "2": "1/2", "3": "-1/4", "4": "1/8"}, {"1": "-1", "2": "1", "3": "1", "4": "-1"}),
    ({"1": "-3", "2": "2"}, {"1": "1", "3": "-2", "4": "5"}),
]


class ExactFan:
    """A stand-in fan functional whose rounding ladder is rounded from the
    60-digit mpmath coefficients of psi_s, not from ANGLE_BITS enclosures."""

    def __init__(self, n, s, phi1, phi2):
        self._support = tuple(sorted(set(phi1.support()) | set(phi2.support())))
        with mpmath.workdps(60):
            zeta = mpmath.pi * (2 * s - 1) / (4 * n + 4)
            target = {
                i: Fraction(mpmath.nstr(
                    mpmath.sin(zeta) * mpmath.mpf(phi1[i].numerator) / phi1[i].denominator
                    - mpmath.cos(zeta) * mpmath.mpf(phi2[i].numerator) / phi2[i].denominator,
                    50, strip_zeros=False,
                ))
                for i in self._support
            }
        self.ladder = tuple(
            SparseVec({i: v.limit_denominator(1 << b) for i, v in target.items()})
            for b in range(demo.ROUNDING_DENOMINATOR_BITS + 1)
        )

    def support(self):
        return self._support


def test_chosen_probes_do_not_depend_on_the_fan_precision(table, monkeypatch):
    """Descent's and the demo's probes from the ANGLE_BITS fan are the probes
    that ladders rounded from exact coefficients give, for n = 2..8.  Single
    rungs may differ; the selections may not."""
    x = SparseVec({1: Fraction(1, 3), 2: Fraction(-2, 5), 3: Fraction(1, 7), 4: Fraction(1, 5)})
    picked, picked_rungs = 0, 0
    for n in range(2, 9):
        points = demo_points(n)
        for anchors in FAN_ANCHORS:
            phi1, phi2 = (SparseVec.from_json(phi) for phi in anchors)
            H = Subspace([phi1, phi2] + [SparseVec.unit(10 + j) for j in range(n - 2)])
            fan = build_fan(n, phi1, phi2)
            exact = [ExactFan(n, s, phi1, phi2) for s in range(1, n + 2)]
            chosen = [build_probes(table, H, x), demo_probes(table, points, fan)]
            with monkeypatch.context() as patched:
                patched.setattr(descent, "build_fan", lambda *_: exact)
                again = [build_probes(table, H, x), demo_probes(table, points, exact)]
            assert again == chosen, (n, anchors)
            rungs = {z for f in fan for z in f.ladder}
            picked += sum(map(len, chosen))
            picked_rungs += sum(z in rungs for probes in chosen for z in probes)
    # a quarter or more of the compared probes are rungs, not the pool's top-up
    assert 4 * picked_rungs > picked


def test_chain_certificates_share_enclosures(table, criterion6_starts):
    H = codim2_subspace()
    for x0 in criterion6_starts:
        chain = minimizing_sequence(table, H, x0, 10)
        certs = chain.certificates
        assert len(certs) == 10
        for prev, nxt in zip(certs, certs[1:]):
            assert prev.norm_after is nxt.norm_before
            for name in ("d_plus", "d_minus"):
                if getattr(prev, name) == getattr(nxt, name):
                    assert getattr(prev, name) is getattr(nxt, name)
        assert len({id(cert.v) for cert in certs}) == 1  # one ray
        assert verify_chain(canonical_table(), chain) == []


def per_step_chain(table, subspace, x0, steps):
    """The oracle: every step rebuilds the probes, the report, the direction
    search and the derivative evidence, from the search's blocks."""
    chain = DescentChain(subspace=subspace, x0=x0)
    x, norm_x = x0, None
    for _ in range(steps):
        try:
            found = search(table, subspace, x)
            if found is None:
                break
            v, _margin, evidence, _report = found
            cert = certify_descent(table, subspace, x, v, evidence, norm_x)
        except SearchBudgetError:
            break
        chain.certificates.append(cert)
        x, norm_x = cert.next_point(), cert.norm_after
    return chain


def chain_bytes(chain):
    return json.dumps(chain.to_json(), sort_keys=True)


def test_one_ray_per_chain_matches_the_per_step_oracle(table, criterion6_starts, monkeypatch):
    """Same bytes as the per-step loop on the criterion-6 starts, from one
    report per chain: no step leaves the ray of its first report."""
    H = codim2_subspace()
    built = []

    def counting(*args):
        built.append(args)
        return build_report(*args)

    monkeypatch.setattr(descent, "build_report", counting)
    for x0 in criterion6_starts:
        built.clear()
        chain = minimizing_sequence(table, H, x0, 10)
        assert chain.stop_reason == "completed"
        assert len(built) == 1
        assert chain_bytes(chain) == chain_bytes(per_step_chain(table, H, x0, 10))


@pytest.mark.parametrize("factor", [Fraction(1, 3), Fraction(-5, 2), Fraction(7, 6)])
def test_the_step_cap_scales_inversely_with_the_direction(table, criterion6_starts, factor):
    """The cap is the room below each threshold over 2|v_i|: a direction
    stored over a denominator other than 1 keeps it in the cap."""
    H = Subspace([SparseVec.unit(1), SparseVec.unit(2)])
    x0 = criterion6_starts[0]
    v, margin, evidence, report = search(table, H, x0)
    scaled = descent._sign_evidence(table, x0, v.scale(factor), report, margin, None)
    assert scaled.step_cap == evidence.step_cap / abs(factor)


def count_builds(monkeypatch):
    """Counts of the calls to descent's ``build_probes`` and ``build_report``
    (whatever stands there), filled in as they happen."""
    calls = {"build_probes": 0, "build_report": 0}

    def counting(name):
        real = getattr(descent, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in calls:
        monkeypatch.setattr(descent, name, counting(name))
    return calls


def test_a_chain_builds_its_probes_once(table, criterion6_starts, monkeypatch):
    """One probe build and one report per chain, both at x0: a later step
    re-checks the ray instead of rebuilding them."""
    calls = count_builds(monkeypatch)
    H = codim2_subspace()
    for x0 in criterion6_starts:
        calls.update(dict.fromkeys(calls, 0))
        chain = minimizing_sequence(table, H, x0, 10)
        assert (len(chain.certificates), chain.stop_reason) == (10, "completed")
        assert calls == {"build_probes": 1, "build_report": 1}


def test_minimizing_sequence_rejects_a_start_inside_the_subspace(table):
    with pytest.raises(PreconditionError):
        minimizing_sequence(table, codim2_subspace(), SparseVec.unit(5), 3)
    with pytest.raises(PreconditionError):
        minimizing_sequence(table, codim2_subspace(), SparseVec.zero(), 3)


def _few_usable(*args):
    report = build_report(*args)
    report.usable = report.usable[:2]  # one fewer than codimension 2 needs
    return report


#: Each way a chain can stop short, forced on the first step: (module and
#: name patched, stand-in, stop reason).
SHORT_STOPS = [
    (demo, "REPORT_DEPTH", 2, "probe_budget"),
    (descent, "build_report", _few_usable, "too_few_usable"),
    (descent, "_margin_parts", lambda report, v: (-1, 1, 0), "no_positive_margin"),
    (descent, "MAX_LINE_SEARCH", 0, "line_search_budget"),
]


@pytest.mark.parametrize("module, name, stand_in, reason", SHORT_STOPS, ids=[r for *_, r in SHORT_STOPS])
def test_a_short_chain_names_its_stop_reason(table, monkeypatch, module, name, stand_in, reason):
    """The stop reason comes from the one search at x0: the probes are built
    once, and the report once unless the probes ran out."""
    monkeypatch.setattr(module, name, stand_in)
    calls = count_builds(monkeypatch)
    chain = minimizing_sequence(table, codim2_subspace(), generic_point(), 3)
    assert (chain.certificates, chain.stop_reason) == ([], reason)
    assert calls == {"build_probes": 1, "build_report": int(reason != "probe_budget")}


def test_a_stop_at_a_later_step_keeps_the_certificates_before_it(table, monkeypatch):
    """A line search that runs out on the second step leaves the first
    step's certificate and names ``line_search_budget``."""
    H, x0 = codim2_subspace(), generic_point()
    first = per_step_chain(table, H, x0, 1).certificates
    calls = []

    def second_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise SearchBudgetError("line search exhausted without a certified decrease")
        return certify_descent(*args)

    monkeypatch.setattr(descent, "certify_descent", second_fails)
    chain = minimizing_sequence(table, H, x0, 3)
    assert (chain.certificates, chain.stop_reason) == (first, "line_search_budget")
    assert len(calls) == 2


def raises_off_the_ray(index):
    """Whether a chain whose every step also moves x by 2^-200 at ``index``
    raises the RuntimeError of a later step whose iterate is off the ray."""
    step = DescentCertificate.next_point
    bump = SparseVec({index: Fraction(1, 1 << 200)})
    DescentCertificate.next_point = lambda cert: step(cert) + bump
    try:
        minimizing_sequence(canonical_table(), codim2_subspace(), generic_point(), 3)
    except RuntimeError as exc:
        return "does not hold" in str(exc)
    finally:
        DescentCertificate.next_point = step
    return False


@pytest.mark.parametrize("index", [1, 3, 10**6], ids=["on-a-probe", "off-v", "far-off-v"])
def test_equal_probes_off_the_ray_raise(index):
    """A later step re-checks the ray of x0's report, and the check fails:
    a pairing or a coordinate off v's support moved.  Also under python -O."""
    assert raises_off_the_ray(index)
    env = dict(os.environ)
    path = [os.path.dirname(__file__), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    script = f"import sys, test_descent as t; sys.exit(0 if t.raises_off_the_ray({index}) else 1)"
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr


def test_the_ray_check_reads_every_fact(table):
    """``_on_ray`` accepts a small step along v and rejects a step so long
    that a touched coordinate passes its thresholds, or a move off v."""
    H = codim2_subspace()
    r = generic_point()
    v, _, evidence, report = search(table, H, r)
    assert descent._on_ray(report, v, r)
    assert descent._on_ray(report, v, r + v.scale(evidence.step_cap))
    assert not descent._on_ray(report, v, r + v.scale(1000))
    assert not descent._on_ray(report, v, r + SparseVec({report.usable[-1] + 1: 1}))


def test_certify_descent_reuses_a_known_norm_only_at_its_depth(table):
    H = codim2_subspace()
    x = generic_point()
    v, _, evidence, _ = search(table, H, x)
    fresh = certify_descent(table, H, x, v, evidence, None)
    shallow = enclosure_at_depth(table, x, 2)
    assert shallow.depth != fresh.norm_before.depth
    cert = certify_descent(table, H, x, v, evidence, norm_x=shallow)
    assert cert == fresh and cert.norm_before is not shallow
    known = enclosure_at_depth(table, x, fresh.norm_before.depth)
    cert = certify_descent(table, H, x, v, evidence, norm_x=known)
    assert cert == fresh and cert.norm_before is known


nonzero_rationals = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 4))
dense_functionals = st.lists(nonzero_rationals, min_size=4, max_size=4).map(
    lambda entries: SparseVec(dict(zip(range(1, 5), entries)))
)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 4).flatmap(lambda n: st.lists(dense_functionals, min_size=n, max_size=n)),
    st.dictionaries(st.integers(1, 6), nonzero_rationals, min_size=1, max_size=6).map(SparseVec),
)
def test_every_emitted_certificate_verifies_at_codimension_2_to_4(table, functionals, x0):
    """Dense functionals over indices 1..4 and a start that pairs nonzero
    with each of them: whatever chain the descent emits re-verifies on a
    fresh table, has the per-step oracle's bytes, and if short, names a
    stop reason other than ``completed``."""
    assume(rank(functionals) == len(functionals))
    assume(all(pair(x0, phi) != 0 for phi in functionals))
    chain = minimizing_sequence(table, Subspace(functionals), x0, 3)
    assert verify_chain(canonical_table(), chain) == []
    assert (chain.stop_reason == "completed") == (len(chain.certificates) == 3)
    assert chain_bytes(chain) == chain_bytes(per_step_chain(table, Subspace(functionals), x0, 3))
