"""The verifier's re-derivation kernel against the producer's enclosures."""

import ast
import gc
import inspect
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxinorm import kernel
from proxinorm.construction import canonical_table, growth_tail_majorant
from proxinorm.descent import DescentChain, Subspace, minimizing_sequence, verify_chain
from proxinorm.errors import DepthBudgetError, PreconditionError
from proxinorm.gateaux import dplus_enclosure_at_depth
from proxinorm.kernel import enclosures_match, growth_majorant
from proxinorm.norms import enclosure_at_depth
from proxinorm.vectors import Enclosure, SparseVec

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


@settings(max_examples=60, deadline=None)
@given(vectors, vectors, steps, st.lists(depths, min_size=4, max_size=4))
def test_accepts_producer_enclosures(table, x, v, h, ds):
    stored = producer_enclosures(table, x, v, h, ds)
    assert enclosures_match(table, x, v, h, stored) == [True] * 4


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
    assert enclosures_match(table, x, v, h, stored) == expected


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
    assert enclosures_match(table, x, v, h, stored) == expected


def test_majorant_matches_the_producer():
    for m in range(1, 401):  # a 2^17-bit norm enclosure's tail starts near m = 363
        t, g = growth_majorant(m)
        assert Fraction(t, 1 << g) == growth_tail_majorant(m), m


@pytest.mark.parametrize("bad, error, message", [
    (0, PreconditionError, "depth must be >= 1"),
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
        enclosures_match(table, x, v, h, stored)


def test_kernel_shares_only_the_stream_with_the_producer():
    """The kernel enumerates the stream itself: of ``construction`` it
    imports only EXACT_HEAD_TERMS, and it reads no table entry."""
    tree = ast.parse(inspect.getsource(kernel))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    package = {name for name in imported if name.startswith(".")}
    assert package == {".construction", ".errors", ".vectors"}
    from_construction = {alias.name for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.module == "construction"
                         for alias in node.names}
    assert from_construction == {"EXACT_HEAD_TERMS"}
    assert not imported & {"functools", "proxinorm.norms", "proxinorm.gateaux",
                           "proxinorm.bits", "proxinorm.approxlin"}
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    producer_paths = {"tail_bound", "weight_tail_bound", "_tail_memo", "growth_prefix_dyadic",
                      "prefix", "entry", "tag", "occurrence_positions", "_vectors", "_tags"}
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
    """One table's prefix grown in steps that cross into levels 3 and 4,
    where the lcm of the denominators changes from 1 to 2 to 6."""
    table = canonical_table()
    x, v, h = SparseVec({1: Fraction(2, 3), 2: -1, 5: Fraction(1, 7)}), SparseVec({3: 1, 4: -2}), Fraction(1, 4)
    for depth in (4, 10, 11, 40, 354, 355, 12):
        stored = producer_enclosures(table, x, v, h, [depth] * 4)
        assert enclosures_match(table, x, v, h, stored) == [True] * 4, depth


def test_prefix_lives_no_longer_than_its_table():
    held = len(kernel._PREFIXES)
    table = canonical_table()
    x, v, h = SparseVec({1: 1, 2: Fraction(1, 2)}), SparseVec({3: 1}), Fraction(1, 8)
    enclosures_match(table, x, v, h, producer_enclosures(table, x, v, h, [6] * 4))
    assert len(kernel._PREFIXES) == held + 1
    del table
    gc.collect()
    assert len(kernel._PREFIXES) == held


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
