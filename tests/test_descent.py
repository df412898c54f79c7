from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxinorm import demo, descent
from proxinorm.approxlin import coherence_margin
from proxinorm.construction import canonical_table
from proxinorm.demo import build_fan, demo_points, demo_probes
from proxinorm.descent import (
    DescentCertificate,
    DescentChain,
    Subspace,
    _candidate_supports,
    build_probes,
    certify_descent,
    find_descent_direction,
    minimizing_sequence,
    verify_certificate,
    verify_chain,
)
from proxinorm.errors import PreconditionError
from proxinorm.linalg import kernel_directions, rank
from proxinorm.norms import enclosure_at_depth
from proxinorm.vectors import SparseVec, pair


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


def test_find_direction_codim2(table):
    H = codim2_subspace()
    x = generic_point()
    found = find_descent_direction(table, H, x)
    assert found is not None
    v, evidence, report = found
    assert H.contains(v)  # exact kernel membership
    assert evidence.margin > 0
    assert evidence.d_plus.sign() in (1, -1)
    assert evidence.d_plus.sign() == evidence.d_minus.sign()
    assert set(v.support()) <= set(report.usable)


def _candidates(report, subspace):
    size = subspace.codimension + 1
    for support in _candidate_supports(report.usable, size, descent.MAX_CANDIDATES):
        yield from kernel_directions(subspace.functionals, support)


def _reference_best(report, subspace):
    """Brute-force search: score every candidate, repeats included."""
    best = None
    for v in _candidates(report, subspace):
        margin = coherence_margin(report, v)
        if margin > 0 and (best is None or margin > best[0]):
            best = (margin, v)
    return best


def test_find_direction_scores_each_direction_once(table, criterion6_starts, monkeypatch):
    H = codim2_subspace()
    scored = []

    def counting(report, v):
        scored.append(v)
        return coherence_margin(report, v)

    monkeypatch.setattr(descent, "coherence_margin", counting)
    for x0 in criterion6_starts[:3]:
        scored.clear()
        v, evidence, report = find_descent_direction(table, H, x0)
        candidates = list(_candidates(report, H))
        assert len(set(candidates)) < len(candidates)
        assert len(scored) == len(set(scored)) and set(scored) == set(candidates)
        assert (evidence.margin, v) == _reference_best(report, H)


def test_find_direction_rejects_point_inside_subspace(table):
    H = codim2_subspace()
    with pytest.raises(PreconditionError):
        find_descent_direction(table, H, SparseVec.unit(5))


def test_certify_descent_step_and_sign(table):
    H = codim2_subspace()
    x = generic_point()
    v, evidence, _ = find_descent_direction(table, H, x)
    cert = certify_descent(table, H, x, v, evidence)
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
    v, evidence, _ = find_descent_direction(table, H, x)
    cert = certify_descent(table, H, x, v, evidence)
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
    for pt in chain.iterates():
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


def test_verifier_detects_single_field_tampering(table):
    H = codim2_subspace()
    x = generic_point()
    v, evidence, _ = find_descent_direction(table, H, x)
    cert = certify_descent(table, H, x, v, evidence)
    assert verify_certificate(table, H, cert) == []

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
        assert verify_certificate(table, H, bad) != [], "tamper not detected"


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
    found = find_descent_direction(table, H, x0)
    assert found is not None
    v, evidence, _ = found
    assert H.contains(v)
    cert = certify_descent(table, H, x0, v, evidence)
    assert cert.norm_after.hi < cert.norm_before.lo
    assert verify_certificate(table, H, cert) == []


def test_codim1_search_is_honest(table):
    """Hyperplane case: the search may or may not find a direction, but it
    must never raise and never fabricate evidence."""
    H = Subspace([SparseVec.unit(1)])
    x = SparseVec({1: 1, 3: Fraction(1, 3)})
    found = find_descent_direction(table, H, x)
    if found is not None:
        v, evidence, _ = found
        assert H.contains(v)
        assert evidence.margin > 0


def test_sequence_partial_chain_on_tiny_budget(table, monkeypatch):
    """An impossible probe budget stops the run with a partial (empty) chain
    instead of raising; the probe builder itself reports the exhaustion."""
    H = codim2_subspace()
    monkeypatch.setattr(descent, "REPORT_DEPTH", 2)  # only zero vectors listed that early
    from proxinorm.errors import SearchBudgetError

    with pytest.raises(SearchBudgetError):
        build_probes(table, H, generic_point())
    chain = minimizing_sequence(table, H, generic_point(), 3)
    assert chain.certificates == []


def fresh_roundings(f):
    """The rounding ladder of a fan functional's coefficient midpoints,
    computed afresh at every call."""
    target = {i: f.coefficient_interval(i).midpoint() for i in f.support()}
    return tuple(
        SparseVec({i: v.limit_denominator(1 << b) for i, v in target.items()})
        for b in range(demo.ROUNDING_DENOMINATOR_BITS + 1)
    )


def test_cached_fan_rounding_matches_fresh_rounding(table, criterion6_starts, monkeypatch):
    H = codim2_subspace()
    points = list(criterion6_starts) + minimizing_sequence(
        table, H, criterion6_starts[0], 3
    ).iterates()[1:]
    e1, e2 = SparseVec.unit(1), SparseVec.unit(2)

    def all_demo_probes():
        return [
            demo_probes(table, demo_points(n), build_fan(n, e1, e2, 44), 500)
            for n in range(2, 7)
        ]

    # every target after the first point is rounded from the cache
    cached = [build_probes(table, H, x) for x in points]
    cached_demo = all_demo_probes()
    assert all_demo_probes() == cached_demo
    # the one rounding step both probe builders share
    monkeypatch.setattr(demo, "_roundings", fresh_roundings)
    assert [build_probes(table, H, x) for x in points] == cached
    assert all_demo_probes() == cached_demo


def test_chain_certificates_share_enclosures(table, criterion6_starts):
    H = codim2_subspace()
    for x0 in criterion6_starts:
        chain = minimizing_sequence(table, H, x0, 10)
        certs = chain.certificates
        assert len(certs) == 10
        for prev, nxt in zip(certs, certs[1:]):
            assert prev.norm_after is nxt.norm_before
        assert verify_chain(canonical_table(), chain) == []


def test_certify_descent_reuses_a_known_norm_only_at_its_depth(table):
    H = codim2_subspace()
    x = generic_point()
    v, evidence, _ = find_descent_direction(table, H, x)
    fresh = certify_descent(table, H, x, v, evidence)
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
    fresh table."""
    assume(rank(functionals) == len(functionals))
    assume(all(pair(x0, phi) != 0 for phi in functionals))
    chain = minimizing_sequence(table, Subspace(functionals), x0, 3)
    assert verify_chain(canonical_table(), chain) == []
