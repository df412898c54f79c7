"""The verifier's trusted base against the producer: its re-derived
enclosures, and its verdict on whole chains against the producer's
arithmetic."""

import ast
import inspect
import json
from collections.abc import MutableMapping, MutableSequence, MutableSet
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxinorm import descent, kernel
from proxinorm import vectors as vectors_module
from proxinorm.construction import canonical_table, growth_tail_majorant
from proxinorm.descent import DescentChain, Subspace, minimizing_sequence, verify_chain
from proxinorm.errors import DepthBudgetError, PreconditionError, ProxinormError
from proxinorm.gateaux import dplus_enclosure_at_depth
from proxinorm.kernel import growth_majorant
from proxinorm.norms import enclosure_at_depth
from proxinorm.vectors import Enclosure, SparseVec, format_rational, parse_rational

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6).filter(bool)
# small indices, so that zero pairings <x, w_k> = 0 with <v, w_k> != 0 occur
vectors = st.dictionaries(st.integers(1, 9), rationals, min_size=1, max_size=5).map(SparseVec)
steps = st.fractions(min_value=-2, max_value=2, max_denominator=64).filter(bool)
depths = st.integers(1, 60)


def producer_enclosures(table, x, v, h, ds):
    """The four certificate enclosures as the producer computes them."""
    return [
        enclosure_at_depth(table, x, ds[0]),
        enclosure_at_depth(table, x + v.scale(h), ds[1]),
        dplus_enclosure_at_depth(table, x, v, ds[2]),
        -dplus_enclosure_at_depth(table, x, -v, ds[3]),
    ]


FIELDS = ("norm_before", "norm_after", "d_plus", "d_minus")
#: A subspace no test vector touches (their indices stay below 10): every v
#: lies in it, and every iterate stays in its start's coset.
FAR = Subspace([SparseVec.unit(1000)])
SIGN_PROBLEM = "derivative evidence does not determine a shared sign"


def certificate(x, v, h, stored):
    """A certificate as the kernel reads it, field by field: unlike a
    ``DescentCertificate``, its norm enclosures need not show a decrease."""
    return SimpleNamespace(x=x, v=v, h=h, **dict(zip(FIELDS, stored)))


def recomputed(budget, x, v, h, stored):
    """Whether the kernel recomputes each stored enclosure, read off
    ``kernel.verify_chain`` on the one-certificate chain from x in FAR's
    coset, with a stream prefix walked for this call alone.  Every other
    check is kept: the only other problem is the sign check's, raised
    exactly when the stored derivative signs are not one definite sign."""
    problems = kernel.verify_chain(budget, SimpleNamespace(
        subspace=FAR, x0=x, certificates=[certificate(x, v, h, stored)]))
    signs = stored[2].sign(), stored[3].sign()
    assert (f"step 0: {SIGN_PROBLEM}" in problems) == (signs[0] == 0 or signs[0] != signs[1])
    assert all(p.endswith((" does not recompute", SIGN_PROBLEM)) for p in problems), problems
    return [f"step 0: {name} does not recompute" not in problems for name in FIELDS]


@settings(max_examples=60, deadline=None)
@given(vectors, vectors, steps, st.lists(depths, min_size=4, max_size=4))
def test_accepts_producer_enclosures(table, x, v, h, ds):
    stored = producer_enclosures(table, x, v, h, ds)
    assert recomputed(table.depth_budget, x, v, h, stored) == [True] * 4


def moved(enc, field, delta):
    lo, hi, depth = enc.lo, enc.hi, enc.depth
    if field == "lo":
        lo += delta
    elif field == "hi":
        hi += delta
    else:
        depth += delta
    return Enclosure(lo, hi, depth) if lo <= hi else None


@settings(max_examples=40, deadline=None)
@given(
    vectors, vectors, steps, st.lists(depths, min_size=4, max_size=4), st.integers(0, 3),
    st.sampled_from(["lo", "hi"]), st.integers(1, 200), st.sampled_from([1, -1]),
)
def test_rejects_a_moved_endpoint(table, x, v, h, ds, which, field, j, sign):
    stored = producer_enclosures(table, x, v, h, ds)
    tampered = moved(stored[which], field, sign * Fraction(1, 1 << j))
    assume(tampered is not None)
    stored[which] = tampered
    expected = [True] * 4
    expected[which] = False
    assert recomputed(table.depth_budget, x, v, h, stored) == expected


@settings(max_examples=40, deadline=None)
@given(vectors, vectors, steps, st.lists(depths, min_size=4, max_size=4), st.integers(0, 3),
       st.sampled_from([1, -1]))
def test_rejects_a_moved_depth(table, x, v, h, ds, which, delta):
    """Every enclosure has a nonzero width that shrinks with depth, so a
    depth off by one never recomputes to the stored endpoints."""
    assume(ds[which] + delta >= 1)
    assume(not (x + v.scale(h)).is_zero())
    stored = producer_enclosures(table, x, v, h, ds)
    stored[which] = moved(stored[which], "depth", delta)
    expected = [True] * 4
    expected[which] = False
    assert recomputed(table.depth_budget, x, v, h, stored) == expected


def test_majorant_matches_the_producer():
    for m in range(1, 401):  # a 2^17-bit norm enclosure's tail starts near m = 363
        t, g = growth_majorant(m)
        assert Fraction(t, 1 << g) == growth_tail_majorant(m), m


@pytest.mark.parametrize("bad, error, message", [
    (0, PreconditionError, "depth must be >= 1"),
    (21, DepthBudgetError, "table index 21 exceeds depth budget 20"),
    (31, DepthBudgetError, "table index 21 exceeds depth budget 20"),
])
def test_out_of_range_depth_raises_in_field_order(bad, error, message):
    """The first out-of-range depth, in field order, decides the error."""
    table = canonical_table(20)
    x, v, h = SparseVec({1: 1, 4: Fraction(1, 2)}), SparseVec({3: 1}), Fraction(1, 8)
    stored = producer_enclosures(table, x, v, h, [5, 5, 5, 5])
    other = 0 if bad > 20 else 31
    stored[1] = Enclosure(stored[1].lo, stored[1].hi, bad)
    stored[3] = Enclosure(stored[3].lo, stored[3].hi, other)
    with pytest.raises(error, match=message):
        recomputed(table.depth_budget, x, v, h, stored)


def test_kernel_shares_only_the_stream_with_the_producer():
    """The kernel enumerates the stream itself: of ``construction`` it
    imports only EXACT_HEAD_TERMS, of ``vectors`` only the two types (no
    dyadic helper), and it reads no table entry."""
    tree = ast.parse(inspect.getsource(kernel))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    package = {name for name in imported if name.startswith(".")}
    assert package == {".construction", ".errors", ".vectors"}

    def names_from(module):
        return {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == module
                for alias in node.names}

    assert names_from("construction") == {"EXACT_HEAD_TERMS"}
    assert names_from("vectors") == {"Enclosure", "SparseVec"}
    assert not imported & {"functools", "proxinorm.norms", "proxinorm.gateaux",
                           "proxinorm.approxlin"}
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    producer_paths = {"tail_bound", "weight_tail_bound", "_tail_memo", "prefix", "entry", "tag",
                      "occurrence_positions", "_vectors", "_tags"}
    assert not attributes & producer_paths


def test_kernel_stream_equals_the_producer_stream():
    """Both enumerations list the same vectors and tags over the default
    budget: the first 5,000 entries."""
    table = canonical_table()
    stream = kernel._stream()
    for k in range(1, table.depth_budget + 1):
        entries, tag, D = next(stream)
        u = SparseVec({i: Fraction(p, q) for i, p, q in entries})
        assert (u, tag) == table.entry(k), k
        assert all(D % q == 0 for _, _, q in entries)


def test_stream_growth_check_is_an_explicit_raise(monkeypatch):
    # a broken tag rule must trip the check, also under python -O
    monkeypatch.setattr(kernel, "max", lambda *args: 0, raising=False)
    with pytest.raises(RuntimeError, match="growth rules"):
        next(kernel._stream())


def test_prefix_extended_across_levels_matches_the_producer():
    """Prefixes that end in levels 3 and 4, where the lcm of the
    denominators changes from 1 to 2 to 6: one per call, and one for a
    chain whose shallower certificates read the deepest one's rows."""
    table = canonical_table()
    x, v, h = SparseVec({1: Fraction(2, 3), 2: -1, 5: Fraction(1, 7)}), SparseVec({3: 1, 4: -2}), Fraction(1, 4)
    certs, point = [], x
    for depth in (4, 10, 11, 40, 354, 355, 12):
        stored = producer_enclosures(table, point, v, h, [depth] * 4)
        assert recomputed(table.depth_budget, point, v, h, stored) == [True] * 4, depth
        certs.append(certificate(point, v, h, stored))
        point = point + v.scale(h)
    chain = SimpleNamespace(subspace=FAR, x0=x, certificates=certs)
    problems = kernel.verify_chain(table.depth_budget, chain)
    assert all(p.endswith(SIGN_PROBLEM) for p in problems), problems


def test_a_verify_call_leaves_no_state_in_the_kernel(table):
    """Each call walks its own prefix: the kernel module holds no container
    a call could fill, and a call rebinds none of its names."""
    H = Subspace([SparseVec.unit(1), SparseVec.unit(2)])
    chain = minimizing_sequence(table, H, SparseVec({1: 1, 2: Fraction(1, 2)}), 2)
    mutable = (MutableMapping, MutableSequence, MutableSet)
    before = dict(vars(kernel))
    assert not [name for name, value in before.items()
                if not name.startswith("__") and isinstance(value, mutable)]
    assert kernel.verify_chain(table.depth_budget, chain) == []
    after = dict(vars(kernel))
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())


def test_descent_verify_chain_is_one_kernel_call():
    """The verdict has one home: ``descent.verify_chain`` hands the chain
    and the table's depth budget to ``kernel.verify_chain``."""
    (fn,) = ast.parse(inspect.getsource(descent.verify_chain)).body
    docstring, *body = fn.body
    assert isinstance(docstring.value, ast.Constant)
    assert [ast.unparse(node) for node in body] == ["return kernel.verify_chain(table.depth_budget, chain)"]


@pytest.mark.parametrize("tamper", ["none", "norm_after.lo", "d_plus.depth"])
def test_verify_chain_leaves_a_fresh_table_empty(table, tamper):
    """The kernel reads only ``depth_budget`` of the table it is given."""
    H = Subspace([SparseVec.unit(1), SparseVec.unit(2)])
    chain = minimizing_sequence(table, H, SparseVec({1: Fraction(1, 3), 2: 1, 6: Fraction(-2, 5)}), 2)
    data = chain.to_json()
    if tamper != "none":
        field, key = tamper.split(".")
        enc = data["certificates"][1][field]
        enc[key] = "0" if key == "lo" else enc[key] + 1
    fresh = canonical_table()
    problems = verify_chain(fresh, DescentChain.from_json(data))
    assert (problems == []) == (tamper == "none")
    assert len(fresh) == 0


def respelled(vec, k):
    """A vector document with every entry written as an unreduced literal."""
    out = {}
    for i, text in vec.items():
        p, _, q = text.partition("/")
        out[i] = f"{int(p) * k}/{int(q or 1) * k}"
    return out


@pytest.mark.parametrize("tamper", ["none", "norm_after.lo", "d_plus.depth", "x.6"])
def test_a_respelled_chain_gets_the_same_verdict(table, tamper):
    """Entries of x0, x and v written as "2/4" rather than "1/2" decode to
    the same canonical vectors, so verify reads the same chain."""
    H = Subspace([SparseVec.unit(1), SparseVec.unit(2)])
    chain = minimizing_sequence(table, H, SparseVec({1: Fraction(1, 3), 2: 1, 6: Fraction(-2, 5)}), 2)
    data = chain.to_json()
    if tamper != "none":
        field, key = tamper.split(".")
        target = data["certificates"][1][field]
        target[key] = "0" if key == "lo" else "1/7" if field == "x" else target[key] + 1
    other = json.loads(json.dumps(data))
    other["x0"] = respelled(other["x0"], 2)
    for k, cert in enumerate(other["certificates"], start=3):
        cert["x"], cert["v"] = respelled(cert["x"], k), respelled(cert["v"], k)
    assert other != data
    verdict = verify_chain(table, DescentChain.from_json(data))
    assert verify_chain(table, DescentChain.from_json(other)) == verdict
    assert (verdict == []) == (tamper == "none")


@settings(max_examples=40, deadline=None)
@given(vectors, vectors, steps, st.lists(depths, min_size=4, max_size=4), st.integers(2, 30))
def test_the_kernel_reads_any_positive_denominator(table, x, v, h, ds, c):
    """The kernel's sums are homogeneous in a point's integers: x and v
    stored over c times their denominators match as the canonical ones do."""
    stored = producer_enclosures(table, x, v, h, ds)

    def scaled(y):
        d, idx, nums = y.integers()
        return vectors_module._vec(c * d, idx, tuple(c * n for n in nums))

    assert recomputed(table.depth_budget, scaled(x), scaled(v), h, stored) == [True] * 4


@pytest.mark.parametrize("den", [0, -3])
def test_the_kernel_checks_a_denominator_is_positive(table, den):
    x = vectors_module._vec(den, (1,), (1,))
    v = SparseVec.unit(2)
    stored = producer_enclosures(table, SparseVec.unit(1), v, Fraction(1, 2), [3] * 4)
    with pytest.raises(PreconditionError, match=f"vector denominator {den} is not positive"):
        recomputed(table.depth_budget, x, v, Fraction(1, 2), stored)
    with pytest.raises(PreconditionError, match=f"vector denominator {den} is not positive"):
        recomputed(table.depth_budget, v, x, Fraction(1, 2), stored)


def test_the_kernel_ignores_a_stored_zero(table):
    """A zero numerator kept in a point's integers is no coordinate of it:
    at x = 0 stored as 0 / 1 at index 1, the sup derivative is sup |v|."""
    v, h = SparseVec({1: 1, 2: -2}), Fraction(1, 4)
    stored = producer_enclosures(table, SparseVec.zero(), v, h, [5] * 4)
    x = vectors_module._vec(1, (1,), (0,))
    assert recomputed(table.depth_budget, x, v, h, stored) == [True] * 4


# -- the verdict against the producer's arithmetic ----------------------------


def oracle_verify_chain(table, chain):
    """The verdict as the producer's arithmetic composes it: chaining by
    ``next_point``, membership and the coset by ``pair`` through
    ``Subspace.contains`` and ``Subspace.pairings``, signs by
    ``Enclosure.sign``, and each enclosure recomputed by ``norms`` and
    ``gateaux`` at its stored depth once every depth of the step is in
    range, in field order."""
    problems = []
    H, budget = chain.subspace, table.depth_budget
    base = H.pairings(chain.x0)
    x = chain.x0
    for t, cert in enumerate(chain.certificates):
        stored = [getattr(cert, name) for name in FIELDS]
        for enc in stored:
            if enc.depth < 1:
                raise PreconditionError("depth must be >= 1")
            if enc.depth > budget:
                raise DepthBudgetError(f"table index {budget + 1} exceeds depth budget {budget}")
        if cert.x != x:
            problems.append(f"step {t}: base point does not chain")
        if not H.contains(cert.v):
            problems.append(f"step {t}: v is not in the subspace")
        fresh = producer_enclosures(table, cert.x, cert.v, cert.h, [enc.depth for enc in stored])
        for name, enc, own in zip(FIELDS, stored, fresh):
            if enc != own:
                problems.append(f"step {t}: {name} does not recompute")
        sign = cert.d_plus.sign()
        if sign == 0 or sign != cert.d_minus.sign():
            problems.append(f"step {t}: {SIGN_PROBLEM}")
        x = cert.next_point()
        if H.pairings(x) != base:
            problems.append(f"step {t}: iterate left the coset")
    return problems


@pytest.fixture(scope="module")
def emitted_chains(table):
    """Two emitted 3-step chains: on ker(e1, e2), its enclosures at depth
    37, and on the kernel of two functionals of wider support, at depth 4
    (where an entry past index 4 is invisible to every enclosure)."""
    runs = [
        ([SparseVec.unit(1), SparseVec.unit(2)], {1: Fraction(1, 3), 2: 1, 6: Fraction(-2, 5)}),
        ([SparseVec({1: 1, 4: 1}), SparseVec({2: 1, 16: -2})],
         {1: Fraction(3, 4), 2: Fraction(-1, 3), 6: Fraction(1, 2)}),
    ]
    chains = [minimizing_sequence(table, Subspace(phis), SparseVec(x0), 3) for phis, x0 in runs]
    assert [len(chain.certificates) for chain in chains] == [3, 3]
    return [chain.to_json() for chain in chains]


small = st.sampled_from([Fraction(1, 3), -1, Fraction(-2, 5), Fraction(1, 7), 2])
#: One tampered field of a chain document; its step is taken modulo the
#: document's step count.
tampers = st.one_of(
    st.tuples(st.just("entry"), st.sampled_from(["x0", "x", "v"]), st.integers(0, 2),
              st.sampled_from([1, 2, 4, 5, 6, 37]), small),
    st.tuples(st.just("h"), st.integers(0, 2), st.sampled_from([2, Fraction(1, 2), -1, 3])),
    st.tuples(st.just("end"), st.integers(0, 2), st.sampled_from(FIELDS),
              st.sampled_from(["lo", "hi"]), st.integers(1, 1600), st.sampled_from([1, -1])),
    st.tuples(st.just("depth"), st.integers(0, 2), st.sampled_from(FIELDS),
              st.sampled_from([-1, 1, "zero", "past"])),
)


def tamper(doc, change, budget):
    kind, *args = change
    certs = doc["certificates"]
    if kind == "entry":
        field, t, index, delta = args
        vec = doc["x0"] if field == "x0" else certs[t % len(certs)][field]
        value = parse_rational(vec.get(str(index), "0")) + delta
        vec[str(index)] = format_rational(value)
    elif kind == "h":
        t, factor = args
        cert = certs[t % len(certs)]
        cert["h"] = format_rational(parse_rational(cert["h"]) * factor)
    elif kind == "end":
        t, field, end, j, sign = args
        enc = certs[t % len(certs)][field]
        enc[end] = format_rational(parse_rational(enc[end]) + sign * Fraction(1, 1 << j))
    else:
        t, field, move = args
        enc = certs[t % len(certs)][field]
        enc["depth"] = 0 if move == "zero" else budget + 1 if move == "past" else enc["depth"] + move


def verdict_of(check, *args):
    try:
        return "problems", check(*args)
    except Exception as exc:  # the verdict names it
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1), st.integers(1, 3), st.lists(tampers, min_size=1, max_size=2))
def test_the_kernel_verdict_equals_the_producer_oracle(table, emitted_chains, which, steps, changes):
    """On 1-3 steps of an emitted chain with one or two fields tampered,
    ``descent.verify_chain`` gives the oracle's problems, or raises its
    exception.  A document that no longer decodes (crossed ends, no
    decrease) is the reader's concern, not the verdict's."""
    doc = json.loads(json.dumps(emitted_chains[which]))
    doc["certificates"] = doc["certificates"][:steps]
    for change in changes:
        tamper(doc, change, table.depth_budget)
    try:
        chain = DescentChain.from_json(doc)
    except (ValueError, ProxinormError):
        assume(False)
    assert verdict_of(verify_chain, table, chain) == verdict_of(oracle_verify_chain, table, chain)
