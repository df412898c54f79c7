import copy
import math
import pickle
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxinorm import vectors
from proxinorm.construction import canonical_table
from proxinorm.errors import InputFormatError
from proxinorm.vectors import (
    Enclosure,
    SparseVec,
    _echo,
    _lowest_terms,
    _parts,
    _parts_less,
    _to_int,
    _to_str,
    dyadic_parts,
    dyadic_sum,
    floor_pow2,
    format_rational,
    l1_norm,
    pair,
    parse_rational,
    round_dyadic,
    scale_pow2,
    sgn,
    split_pow2,
    sup_norm,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=16)
sparse_vecs = st.dictionaries(st.integers(1, 12), rationals, max_size=5).map(SparseVec)


def vec(**kw):
    return SparseVec({int(k[1:]): v for k, v in kw.items()})


def test_pair_unit_vectors():
    assert pair(SparseVec.unit(1), SparseVec.unit(1)) == 1


def test_pair_zero_vector():
    phi = vec(i1=2, i3=Fraction(-1, 7))
    assert pair(SparseVec.zero(), phi) == 0


def test_pair_hand_cancellation():
    # (1/2)*2 + (1/3)*(-3) = 1 - 1 = 0
    x = SparseVec({1: Fraction(1, 2), 2: Fraction(1, 3)})
    phi = SparseVec({1: 2, 2: -3})
    assert pair(x, phi) == 0


def test_l1_norm_examples():
    assert l1_norm(SparseVec.zero()) == 0
    assert l1_norm(SparseVec({1: 1, 2: -1})) == 2
    assert l1_norm(SparseVec({5: Fraction(3, 4), 7: Fraction(-1, 4)})) == 1


def test_sup_norm_examples():
    assert sup_norm(SparseVec.zero()) == 0
    assert sup_norm(SparseVec({1: 2, 3: -2})) == 2
    assert sup_norm(SparseVec({2: Fraction(1, 3), 9: Fraction(1, 2)})) == Fraction(1, 2)


def test_sign_convention():
    assert sgn(Fraction(0)) == 1
    assert sgn(Fraction(-1, 7)) == -1
    assert sgn(Fraction(5)) == 1


@given(st.fractions(max_denominator=1000))
def test_sign_times_abs(t):
    assert sgn(t) * abs(t) == t


@given(sparse_vecs, sparse_vecs)
def test_hoelder(x, phi):
    assert abs(pair(x, phi)) <= sup_norm(x) * l1_norm(phi)


@given(sparse_vecs, sparse_vecs, sparse_vecs, st.fractions(max_denominator=8))
def test_pair_bilinear(x, y, phi, q):
    assert pair(x + y, phi) == pair(x, phi) + pair(y, phi)
    assert pair(x.scale(q), phi) == q * pair(x, phi)
    assert pair(phi, x) == pair(x, phi)


@given(sparse_vecs)
def test_no_zero_entries_stored(x):
    assert all(v != 0 for _, v in x.items())
    assert x.support() == tuple(sorted(i for i, _ in x.items()))


@given(sparse_vecs)
def test_json_roundtrip(x):
    assert SparseVec.from_json(x.to_json()) == x


@given(sparse_vecs, sparse_vecs)
def test_add_sub_consistent(x, y):
    assert (x + y) - y == x
    assert x + (-x) == SparseVec.zero()


@given(sparse_vecs)
def test_equal_vectors_hash_equal(x):
    y = SparseVec.from_json(x.to_json())
    assert y == x and hash(y) == hash(x)


def test_entries_minus_one_and_minus_two_hash_apart():
    """``hash(-1) == hash(-2)`` in CPython; vector hashes do not inherit it."""
    assert hash(-1) == hash(-2) and hash(Fraction(-1)) == hash(Fraction(-2))
    for a, b in [({1: -1}, {1: -2}), ({3: Fraction(-1, 5)}, {3: Fraction(-2, 5)}),
                 ({1: 1, 2: -1}, {1: 1, 2: -2}), ({2: -1, 4: -1}, {2: -2, 4: -2})]:
        assert hash(SparseVec(a)) != hash(SparseVec(b))


def test_table_extension_finds_vectors_by_hash(monkeypatch):
    """Extending a fresh table to 550 entries looks each vector up in the
    occurrence map; with entries -1 and -2 hashing alike, that took 240
    ``SparseVec.__eq__`` calls."""
    calls = []
    eq = SparseVec.__eq__
    monkeypatch.setattr(SparseVec, "__eq__", lambda a, b: calls.append(1) or eq(a, b))
    table = canonical_table()
    table.entry(550)
    assert len(calls) < 24


#: Entries for the dict model: small rationals, zeros (dropped on entry),
#: and dyadic values past 64 bits, whose powers of 2 the common
#: denominator must carry by shifts.
model_entries = st.dictionaries(
    st.integers(1, 12),
    st.one_of(
        rationals,
        st.just(Fraction(0)),
        st.builds(lambda p, e: Fraction(p, 1 << e), st.integers(-99, 99), st.integers(60, 400)),
    ),
    max_size=6,
)


def modelled(entries):
    """The dict-of-``Fraction`` model of ``SparseVec(entries)``."""
    return {i: f for i, f in entries.items() if f}


def assert_canonical(x, model):
    """x stores the canonical integers of the model and reads back as it."""
    den, idx, nums = x.integers()
    assert type(den) is int and den > 0 and idx == tuple(sorted(model))
    assert all(type(n) is int and n for n in nums) and math.gcd(den, *nums) == 1
    assert [Fraction(n, den) for n in nums] == [model[i] for i in idx]
    assert list(x.items()) == sorted(model.items())
    assert all(type(f) is Fraction for _, f in x.items())
    assert x.support() == idx and len(x) == len(model) and x.is_zero() == (not model)
    assert all(x[i] == model.get(i, 0) and type(x[i]) is Fraction for i in range(14))
    assert x == SparseVec(model) and hash(x) == hash(SparseVec(model))


@settings(max_examples=150, deadline=None)
@given(model_entries, model_entries, st.fractions(min_value=-8, max_value=8, max_denominator=64))
def test_every_operation_matches_a_dict_model(a, b, q):
    x, y = SparseVec(a), SparseVec(b)
    ma, mb = modelled(a), modelled(b)
    both = ma.keys() | mb.keys()
    assert_canonical(x, ma)
    assert_canonical(x + y, modelled({i: ma.get(i, 0) + mb.get(i, 0) for i in both}))
    assert_canonical(x - y, modelled({i: ma.get(i, 0) - mb.get(i, 0) for i in both}))
    assert_canonical(-x, {i: -f for i, f in ma.items()})
    assert_canonical(x.scale(q), modelled({i: q * f for i, f in ma.items()}))
    assert_canonical(x.scale(0), {})
    assert pair(x, y) == sum(ma[i] * mb[i] for i in ma.keys() & mb.keys())
    assert l1_norm(x) == sum(map(abs, ma.values()))
    assert sup_norm(x) == max(map(abs, ma.values()), default=0)
    for value in (pair(x, y), l1_norm(x), sup_norm(x)):
        assert type(value) is Fraction
    assert x.to_json() == {str(i): format_rational(f) for i, f in sorted(ma.items())}
    assert list(x.to_json()) == [str(i) for i in sorted(ma)]
    assert_canonical(SparseVec.from_json(x.to_json()), ma)


def test_equal_vectors_built_by_different_routes_are_one_value():
    """The canonical integers do not depend on how a vector was built."""
    half = SparseVec({1: Fraction(1, 2)})
    routes = [
        SparseVec.from_json({"1": "2/4"}),
        SparseVec.from_json({"1": "1/2", "3": "0"}),
        SparseVec({1: Fraction(3, 2), 3: 1}) - SparseVec({1: 1, 3: 1}),
        SparseVec.unit(1).scale(Fraction(1, 2)),
        -SparseVec({1: Fraction(-1, 2)}),
    ]
    for x in routes:
        assert x == half and hash(x) == hash(half) and x.integers() == (2, (1,), (1,))


@pytest.mark.parametrize("x", [
    SparseVec({1: Fraction(1, 2), 3: -2}),
    SparseVec.from_json({"2": "2/4", "9": "-6/1024"}),
    SparseVec.zero(),
    SparseVec({1: Fraction(1, 3)}) + SparseVec({2: Fraction(1, 6)}),
    SparseVec({1: 1, 2: 1 << 80}).scale(Fraction(3, 7)),
    canonical_table().entry(40)[0],
], ids=["dict", "json", "zero", "sum", "scaled", "table"])
def test_a_vector_stores_only_ints_and_tuples(x):
    hash(x)
    assert not hasattr(x, "__dict__")

    def leaves(value):
        if type(value) is tuple:
            for item in value:
                yield from leaves(item)
        else:
            yield value

    stored = tuple(getattr(x, slot) for slot in type(x).__slots__)
    assert {type(v) for v in leaves(stored)} == {int}


#: Every ``InputFormatError`` text of ``SparseVec.from_json``, byte for byte:
#: the verify digests record them.  Each object raises at its first bad key
#: or entry, in the order the object lists them.
FROM_JSON_ERRORS = [
    ([1, 2], "sparse vector must be a JSON object, got list"),
    ("1/2", "sparse vector must be a JSON object, got str"),
    ({"x": "1"}, "vector index must be an integer, got 'x'"),
    ({"1": "1", "-2": "1"}, "vector index '-2' must be >= 1"),
    ({"0": "1"}, "vector index '0' must be >= 1"),
    ({"1": "0", "01": "3"}, "vector index '01' names index 1 twice"),
    ({"1": 5}, "entry at index '1' must be a rational string"),
    ({"1": None, "x": "1"}, "entry at index '1' must be a rational string"),
    ({"x": "1", "1": None}, "vector index must be an integer, got 'x'"),
    ({"2": "1/0"}, "bad rational literal '1/0'"),
    ({"2": "2/4", "3": "1/x", "0": "1"}, "bad rational literal '1/x'"),
]


@pytest.mark.parametrize("obj, message", FROM_JSON_ERRORS, ids=range(len(FROM_JSON_ERRORS)))
def test_from_json_error_texts(obj, message):
    with pytest.raises(InputFormatError) as exc:
        SparseVec.from_json(obj)
    assert str(exc.value) == message


def test_bad_json_rejected():
    with pytest.raises(InputFormatError):
        SparseVec.from_json({"0": "1"})
    with pytest.raises(InputFormatError):
        SparseVec.from_json({"1": "1/0"})
    with pytest.raises(InputFormatError):
        SparseVec.from_json([1, 2])
    with pytest.raises(InputFormatError):
        SparseVec.from_json({"x": "1"})


@pytest.mark.parametrize("key", ["1_0", " 3", "3 ", "+3", "\u0663"])
def test_vector_keys_are_plain_decimal_digits(key):
    """``int`` would read these as 10 or 3; a key is an integer's digits."""
    with pytest.raises(InputFormatError, match="vector index must be an integer"):
        SparseVec.from_json({key: "1"})


@pytest.mark.parametrize("obj, key, index", [
    ({"1": "1/2", "01": "3"}, "01", 1),
    ({"01": "3", "1": "1/2"}, "1", 1),
    ({"7": "1", "2": "1", "007": "1"}, "007", 7),
])
def test_an_index_spelled_twice_is_rejected(obj, key, index):
    """Two keys that name one index used to be last-wins."""
    with pytest.raises(InputFormatError) as exc:
        SparseVec.from_json(obj)
    assert str(exc.value) == f"vector index {key!r} names index {index} twice"


def test_bad_rational_echo_is_capped():
    with pytest.raises(InputFormatError) as short:
        parse_rational("1/x")
    assert str(short.value) == "bad rational literal '1/x'"
    text = "7" * 4772 + "x"
    with pytest.raises(InputFormatError) as long:
        parse_rational(text)
    message = str(long.value)
    assert message == f"bad rational literal {text[:40]!r}... (4773 characters)"


def test_parse_rational_rejects_non_strings():
    for value in (5, 0.5, None, [1]):
        with pytest.raises(InputFormatError):
            parse_rational(value)


@pytest.mark.parametrize("value", ["1/2", "3", 0.5, None])
def test_library_rationals_are_fractions_or_ints(value):
    """Strings are parsed only at the JSON edge (``from_json``)."""
    with pytest.raises(TypeError, match="not a rational value"):
        SparseVec({1: value})
    with pytest.raises(TypeError, match="not a rational value"):
        Enclosure.point(value)


@pytest.mark.parametrize("value", [True, False])
def test_library_rationals_reject_bools(value):
    """``isinstance(True, int)`` holds, but a ``bool`` is no rational value:
    ``{1: True, 2: False}`` would build ``{1: 1}`` and ``point(True)`` [1, 1]."""
    with pytest.raises(TypeError, match="not a rational value"):
        SparseVec({1: value})
    with pytest.raises(TypeError, match="not a rational value"):
        SparseVec({1: 1, 2: value})
    with pytest.raises(TypeError, match="not a rational value"):
        Enclosure.point(value)


@pytest.mark.parametrize("key", ["1_0", " 3", "1", True, False, 2.7, 2.0, Fraction(2), None])
def test_library_indices_are_ints(key):
    """``int`` would read these as 10, 3, 1, 1, 0, 2, 2 and 2: an index is an
    ``int`` (not a ``bool``); strings are parsed only at the JSON edge."""
    with pytest.raises(TypeError, match="not an index"):
        SparseVec({key: 1})
    with pytest.raises(TypeError, match="not an index"):
        SparseVec({key: 0})  # checked even where the entry is dropped


def test_library_indices_below_one_are_value_errors():
    for key in (0, -3):
        with pytest.raises(ValueError, match=f"index {key} is not a positive integer"):
            SparseVec({key: 1})


#: The documented literal grammar, ASCII only (``[0-9]`` is no ``\d``).
_LITERAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def reference_parse_rational(text):
    """The oracle: ``text`` fully matches ``-?[0-9]+(/[0-9]+)?`` and its
    denominator is nonzero; the value is then ``Fraction(int(p), int(q))``.
    ``Decimal`` converts past the int/str digit limit."""
    match = _LITERAL.fullmatch(text)
    if match is None or match[2] is not None and int(Decimal(match[2])) == 0:
        raise InputFormatError(f"bad rational literal {_echo(text)}")
    num, den = match.groups()
    return Fraction(int(Decimal(num)), int(Decimal(den or 1)))


def parse_outcome(parse, text):
    try:
        return parse(text)
    except InputFormatError as exc:
        return ("error", str(exc))


#: Literals near the grammar's edges: signs, separators, non-ASCII
#: digits, decimal and exponent forms, zero denominators, and lengths
#: around the 4300-digit limit.  ``Fraction`` would read "1e999999999" by
#: building a 415 MB integer; the grammar rejects it at its first letter.
EDGE_LITERALS = [
    "١/٢", "²/3", "1_0/3", "+1/2", "1/-2", "--1/2", "1/0", "-0/0", "0/5", "-0", "007/014",
    "1/2/3", "-", "/", "1/", "/2", "", " 1/2", "1/2 ", "1 / 2", "1.5", "1e3", "-1/2",
    *("9" * n for n in (4299, 4300, 4301, 4400)),
    *("-" + "8" * n for n in (4298, 4299, 4300)),
    *("1" * n + "/" + "3" * 7 for n in (4291, 4292, 4293)),
    "1e999999999",
]


@pytest.mark.parametrize("text", EDGE_LITERALS, ids=range(len(EDGE_LITERALS)))
def test_parse_rational_matches_the_reference_on_edge_literals(text):
    assert parse_outcome(parse_rational, text) == parse_outcome(reference_parse_rational, text)


#: Strings over the literal alphabet and the characters ``Fraction`` and
#: ``int`` would also read.
literal_texts = st.text(alphabet="0123456789-/+_.e ", max_size=14)


@given(literal_texts)
def test_parse_rational_matches_the_reference(text):
    assert parse_outcome(parse_rational, text) == parse_outcome(reference_parse_rational, text)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_parse_rational_under_a_lowered_digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for text in ("7" * 1000 + "/3", "-" + "5" * 700, "1/" + "2" * 641, "4" * 1000 + "/0"):
            expected = parse_outcome(reference_parse_rational, text)
            assert parse_outcome(parse_rational, text) == expected
            assert not isinstance(expected, tuple) or text.endswith("/0")
    finally:
        sys.set_int_max_str_digits(old)


def literal(n):
    """``str(n)`` at any length: ``Decimal`` writes every digit of an int."""
    return str(Decimal(n))


#: Numerators: small, zero, negative, and past the 4300-digit limit, then
#: times a power of 2 that the denominator may share in part or in full.
numerators = st.tuples(
    st.one_of(
        st.integers(-(10**6), 10**6),
        st.integers(-(2**5000), 2**5000),
        st.builds(lambda sign, head, digits, low: sign * (head * 10**digits + low),
                  st.sampled_from([1, -1]), st.integers(1, 10**6), st.integers(4300, 4500),
                  st.integers(0, 10**6)),
    ),
    st.integers(0, 20_100),
).map(lambda t: t[0] << t[1])
#: Odd parts of the denominator: small, and 2^64 or more.
odd_parts = st.one_of(
    st.integers(0, 10**6 // 2).map(lambda k: 2 * k + 1),
    st.integers(2**64, 2**90).map(lambda n: n | 1),
)


@settings(max_examples=150, deadline=None)
@given(numerators, odd_parts, st.integers(0, 20_000))
def test_parse_rational_lowest_terms_match_fraction(p, odd, e):
    """The reader's lowest terms are ``Fraction(p, q)``'s,
    for an unreduced literal ``"p/q"`` with q = odd * 2^e."""
    q = odd << e
    expected = Fraction(p, q)
    parsed = parse_rational(f"{literal(p)}/{literal(q)}")
    assert type(parsed) is Fraction
    assert (parsed.numerator, parsed.denominator) == (expected.numerator, expected.denominator)
    n, odd_part, e = _lowest_terms(p, q)
    assert odd_part % 2 == 1 and (n, odd_part << e) == (expected.numerator, expected.denominator)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["", "-"]), st.integers(0, 3), st.integers(1, 30_000), st.integers(0, 2**32))
def test_long_integer_literals_convert_as_decimal_does(sign, zeros, length, seed):
    digits = random.Random(seed).choices("0123456789", k=length)
    text = sign + "0" * zeros + "".join(digits)
    assert _to_int(text) == int(Decimal(text))


def test_long_literals_parse_without_decimal():
    """Past the int/str digit limit the halves of a literal are converted;
    ``Decimal``, quadratic at that length, is not imported."""
    n = 7**50_000  # 42,255 digits
    assert "Decimal" not in vars(vectors)
    assert parse_rational(f"-{literal(n)}/{literal(n * 3)}") == Fraction(-1, 3)
    assert SparseVec.from_json({literal(n): "1"}).support() == (n,)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["", "-"]), st.integers(4000, 80_000), st.integers(0, 2**32))
def test_long_integers_write_as_decimal_does(sign, length, seed):
    """The writer of :func:`format_rational` past the int/str digit limit,
    against ``Decimal`` (the oracle, here only)."""
    digits = random.Random(seed).choices("0123456789", k=length)
    n = int(Decimal(sign + "1" + "".join(digits)))
    assert _to_str(n) == literal(n)
    for value in (Fraction(n, 3), Fraction(3, n), Fraction(n, n + 1)):
        num, den = literal(value.numerator), literal(value.denominator)
        assert format_rational(value) == (num if den == "1" else f"{num}/{den}")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
@settings(max_examples=20, deadline=None)
@given(st.integers(4300, 100_000), st.sampled_from(["", "-"]), st.integers(0, 2**32))
def test_long_integers_write_as_unlimited_str_does(length, sign, seed):
    """The writer past the 4300-digit limit, against ``str(n)`` with the
    limit lifted: an oracle that shares no code with ``decimal``."""
    rng = random.Random(seed)
    text = sign + rng.choice("123456789") + "".join(rng.choices("0123456789", k=length - 1))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        n = int(text)
        expected = str(n)
        sys.set_int_max_str_digits(4300)
        written = _to_str(n)
    finally:
        sys.set_int_max_str_digits(old)
    assert written == expected == text


@pytest.mark.parametrize("low", [0, 1, 7, 10**2000 + 3], ids=["0", "1", "7", "10^2000+3"])
@pytest.mark.parametrize("sign", [1, -1])
def test_long_integers_write_low_halves_with_leading_zeros(sign, low):
    """Every split of 10^m + low has a low half that starts with zeros."""
    for m in (4300, 9_001, 40_105, 80_000):
        n = sign * (10**m + low)
        assert _to_str(n) == literal(n)
        assert format_rational(Fraction(n)) == literal(n)


#: Endpoints p / (odd * 2^e): dyadic, with a small odd part and with one of
#: 2^64 or more, as trig's Taylor sums give; zero and negative numerators;
#: plain ints; and m + n / (odd * 2^e) with an odd n of e bits, e up to 2^17
#: and odd 1 or a small odd number, as the norm and derivative series give
#: at 2^17 bits.
endpoints = st.one_of(
    st.builds(
        lambda p, odd, e: Fraction(p, odd << e),
        st.one_of(st.integers(-(10**6), 10**6), st.integers(-(2**2000), 2**2000)),
        st.one_of(st.just(1), odd_parts),
        st.integers(0, 2000),
    ),
    st.integers(-3, 3),
    st.builds(
        lambda m, odd, e, seed: Fraction(
            (m * odd << e) + (random.Random(seed).getrandbits(e) | 1), odd << e
        ),
        st.integers(-3, 3),
        st.sampled_from([1, 1, 3, 105]),
        st.integers(0, 2**17),
        st.integers(0, 2**32),
    ),
)


def assert_models(enc, lo, hi, depth):
    """``enc`` is the model (lo, hi, depth): its ``lo`` and ``hi`` are
    ``Fraction``s with the model's lowest terms."""
    for got, want in ((enc.lo, lo), (enc.hi, hi)):
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert enc.depth == depth


def assert_crossed(make):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == "enclosure with lo > hi"


@settings(max_examples=60, deadline=None)
@given(
    endpoints, endpoints, endpoints, endpoints,
    st.sampled_from(["none", "b = a", "c = b", "y = x"]),
    st.integers(0, 400), st.integers(0, 400),
    st.one_of(st.integers(-5, 5), st.fractions(max_denominator=50)),
)
def test_enclosure_matches_a_fraction_model(a, b, c, d, tie, m, n, factor):
    """Every ``Enclosure`` operation agrees with the same operation on a
    model (lo, hi, depth) of plain Fractions, equal and touching endpoints
    included; crossed endpoints raise the one ValueError."""
    if tie == "b = a":
        b = a
    elif tie == "c = b":
        c = b
    elif tie == "y = x":
        c, d, n = a, b, m
    for lo, hi in ((a, b), (b, a), (c, d), (d, c)):
        if hi < lo:
            assert_crossed(lambda: Enclosure(lo, hi, m))
    (x_lo, x_hi), (y_lo, y_hi) = sorted((a, b)), sorted((c, d))
    x, y = Enclosure(x_lo, x_hi, m), Enclosure(y_lo, y_hi, n)
    assert_models(x, x_lo, x_hi, m)
    assert_models(-x, -x_hi, -x_lo, m)
    assert_models(abs(x), max(x_lo, -x_hi, 0), max(x_hi, -x_lo), m)
    assert_models(x - y, x_lo - y_hi, x_hi - y_lo, max(m, n))
    assert_models(x.scale(factor), *sorted((x_lo * factor, x_hi * factor)), m)
    assert x.below(y) == (x_hi < y_lo) and y.below(x) == (y_hi < x_lo)
    assert x.sign() == (x_lo > 0) - (x_hi < 0)
    assert x.width() == x_hi - x_lo and x.midpoint() == Fraction(x_lo + x_hi, 2)
    assert (x == y) == ((x_lo, x_hi, m) == (y_lo, y_hi, n))
    assert x != Enclosure(x_lo - 1, x_hi, m) and x != Enclosure(x_lo, x_hi + 1, m)
    assert x != Enclosure(x_lo, x_hi, m + 1)
    twin = Enclosure(Fraction(x_lo), Fraction(x_hi), m)
    assert twin == x and hash(twin) == hash(x)
    obj = x.to_json()
    assert obj == {"lo": format_rational(Fraction(x_lo)), "hi": format_rational(Fraction(x_hi)), "depth": m}
    assert Enclosure.from_json(obj) == x
    lo, hi = max(x_lo, y_lo), min(x_hi, y_hi)
    if hi < lo:
        assert_crossed(lambda: x.intersection(y))
    else:
        assert_models(x.intersection(y), lo, hi, max(m, n))
    assert_has_endpoints(x, x_lo, x_hi)


def assert_has_endpoints(enc, lo, hi):
    """``has_endpoints`` takes lo and the width hi - lo in other terms: lo's
    numerator and denominator times 12, the width's times 3 * 2^7; one
    more in either numerator is another enclosure."""
    w = Fraction(hi - lo)
    lo_terms = (12 * Fraction(lo).numerator, 12 * Fraction(lo).denominator)
    width_terms = (384 * w.numerator, 384 * w.denominator)
    assert enc.has_endpoints(lo_terms, width_terms)
    assert not enc.has_endpoints(lo_terms, (width_terms[0] + 1, width_terms[1]))
    assert not enc.has_endpoints((lo_terms[0] - 1, lo_terms[1]), width_terms)
    assert enc.width() == w and type(enc.width()) is Fraction


@settings(max_examples=60, deadline=None)
@given(endpoints, endpoints, endpoints, st.sampled_from(["free", "norm", "derivative"]),
       st.integers(0, 400))
def test_enclosure_around_matches_a_fraction_model(centre, below, above, shape, depth):
    """``around`` states [centre - below, centre + above]: free distances,
    a norm's [S, S + T] and a derivative's [c - r, c + r]; distances whose
    sum is negative cross and raise the one ValueError."""
    if shape == "norm":
        below, above = 0, abs(above)
    elif shape == "derivative":
        below = above = abs(above)
    lo, hi = centre - below, centre + above
    if hi < lo:
        assert_crossed(lambda: Enclosure.around(centre, below, above, depth))
        return
    enc = Enclosure.around(centre, below, above, depth)
    assert_models(enc, Fraction(lo), Fraction(hi), depth)
    assert enc == Enclosure(lo, hi, depth) and hash(enc) == hash(Enclosure(lo, hi, depth))
    assert_models(-enc, Fraction(-hi), Fraction(-lo), depth)
    assert -(-enc) == enc
    assert enc.sign() == (lo > 0) - (hi < 0)
    assert_has_endpoints(enc, lo, hi)


def test_crossed_enclosure_raises():
    with pytest.raises(ValueError, match="enclosure with lo > hi"):
        Enclosure(Fraction(1), Fraction(0))


def test_enclosure_is_an_immutable_value():
    enc = Enclosure(Fraction(1, 3), Fraction(1, 2), 7)
    same = Enclosure(Fraction(1, 3), Fraction(1, 2), 7)
    assert enc == same and hash(enc) == hash(same) and len({enc, same}) == 1
    assert enc != Enclosure(Fraction(1, 3), Fraction(1, 2)) and enc != (enc.lo, enc.hi, enc.depth)
    assert repr(enc) == "Enclosure(lo=Fraction(1, 3), hi=Fraction(1, 2), depth=7)"
    for mutate in (lambda: setattr(enc, "lo", Fraction(0)), lambda: delattr(enc, "hi"),
                   lambda: setattr(enc, "width_cache", 1)):
        with pytest.raises(AttributeError):
            mutate()
    assert (enc.lo, enc.hi, enc.depth) == (Fraction(1, 3), Fraction(1, 2), 7)


#: 1/3 rounded down to 2^17 bits; its width 2^-(2^17 + 9) has a short numerator.
_DEEP_LO = Fraction((1 << (1 << 17)) // 3 | 1, 1 << (1 << 17))


@pytest.mark.parametrize("enc", [
    Enclosure(Fraction(-1, 3), Fraction(5, 2), 7),
    Enclosure.point(0),
    Enclosure.around(_DEEP_LO, 0, Fraction(3, 1 << ((1 << 17) + 9)), 362),
], ids=["shallow", "point", "2^17 bits"])
def test_enclosure_copies_and_pickles_to_an_equal_value(enc):
    """``copy.copy``, ``copy.deepcopy`` and a pickle round trip rebuild the
    enclosure from its stored parts."""
    for twin in (copy.copy(enc), copy.deepcopy(enc), pickle.loads(pickle.dumps(enc))):
        assert type(twin) is Enclosure and twin == enc and hash(twin) == hash(enc)
        for field in ("lo", "hi", "depth"):
            assert getattr(twin, field) == getattr(enc, field)
        assert twin.width() == enc.width()
        with pytest.raises(AttributeError):
            twin.depth = 0


def test_enclosure_sign_and_reflection():
    pos = Enclosure(Fraction(1, 3), Fraction(1, 2), 7)
    assert pos.sign() == 1 and (-pos).sign() == -1
    assert -pos == Enclosure(Fraction(-1, 2), Fraction(-1, 3), 7)
    assert Enclosure(Fraction(-1), Fraction(0)).sign() == 0
    assert Enclosure.point(0).sign() == 0
    assert pos.scale(-2) == Enclosure(Fraction(-1), Fraction(-2, 3), 7)


@pytest.mark.parametrize(
    "lo, hi, expected",
    [
        (Fraction(-3), Fraction(-1, 2), (Fraction(1, 2), Fraction(3))),  # left of 0
        (Fraction(-2), Fraction(1, 3), (Fraction(0), Fraction(2))),  # across 0
        (Fraction(-1, 5), Fraction(4), (Fraction(0), Fraction(4))),
        (Fraction(0), Fraction(0), (Fraction(0), Fraction(0))),
        (Fraction(1, 7), Fraction(5), (Fraction(1, 7), Fraction(5))),  # right of 0
    ],
)
def test_enclosure_abs_is_the_image_of_abs(lo, hi, expected):
    enc = abs(Enclosure(lo, hi, 9))
    assert (enc.lo, enc.hi, enc.depth) == (*expected, 9)
    assert abs(-Enclosure(lo, hi, 9)) == enc


def test_enclosure_json_roundtrip_and_depth_type():
    enc = Enclosure(Fraction(-1, 3), Fraction(5, 2), 12)
    obj = enc.to_json()
    assert list(obj) == ["lo", "hi", "depth"]
    assert Enclosure.from_json(obj) == enc
    for depth in (12.0, 12.5, "12", None, True):
        with pytest.raises(InputFormatError, match="depth must be an integer"):
            Enclosure.from_json(dict(obj, depth=depth))
    for field in ("lo", "hi"):
        with pytest.raises(InputFormatError, match="rational must be a string"):
            Enclosure.from_json(dict(obj, **{field: 1}))
    with pytest.raises(InputFormatError, match="derivative enclosure missing field 'depth'"):
        Enclosure.from_json({"lo": "0", "hi": "1"}, "derivative enclosure")


unreduced_parts = st.tuples(
    st.integers(-(2**80), 2**80), st.integers(1, 10**6), st.integers(0, 300)
)


@given(unreduced_parts, unreduced_parts, st.booleans())
def test_parts_less_is_the_order_of_fractions(a, b, scaled):
    """``_parts_less`` on unreduced (p, q, e) = p / (q * 2^e), equal values
    in other terms included."""
    if scaled:  # b is a, its numerator and odd part times 3, its exponent + 2
        b = (a[0] * 12, a[1] * 3, a[2] + 2)
    fa, fb = Fraction(a[0], a[1] << a[2]), Fraction(b[0], b[1] << b[2])
    assert _parts_less(a, b) == (fa < fb)
    assert _parts_less(b, a) == (fb < fa)


# -- dyadic arithmetic, against naive Fraction oracles ------------------------

dyadic_terms = st.lists(
    st.tuples(st.integers(-10**6, 10**6), st.integers(1, 1000), st.integers(0, 300)),
    max_size=12,
)
positive_fractions = st.fractions(min_value=Fraction(1, 10**30), max_value=10**30).filter(
    lambda f: f > 0
)


def naive_sum(ts):
    return sum((Fraction(n, q * 2**e) for n, q, e in ts), Fraction(0))


@settings(max_examples=300, deadline=None)
@given(dyadic_terms)
def test_dyadic_sum_matches_termwise_fraction_sum(ts):
    assert dyadic_sum(ts) == naive_sum(ts)


@settings(max_examples=100, deadline=None)
@given(dyadic_terms)
def test_dyadic_sum_cancels_to_zero(ts):
    both = ts + [(-n, q, e) for n, q, e in reversed(ts)]
    result = dyadic_sum(both)
    assert result == 0 and result.denominator == 1


@settings(max_examples=300, deadline=None)
@given(dyadic_terms)
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
@given(positive_fractions)
def test_floor_pow2_is_the_largest_power_below(f):
    p = floor_pow2(f)
    assert p <= f < 2 * p
    assert p.numerator == 1 or p.denominator == 1
    assert (p.numerator * p.denominator) & (p.numerator * p.denominator - 1) == 0


@given(st.integers(-300, 300))
def test_floor_pow2_is_exact_on_powers_of_two(k):
    assert floor_pow2(Fraction(2) ** k) == Fraction(2) ** k


@pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1, 2)])
def test_floor_pow2_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        floor_pow2(bad)


@settings(max_examples=300, deadline=None)
@given(dyadic_terms)
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
@given(st.integers(-(10**40), 10**40), st.integers(1, 10**40))
def test_split_pow2_is_the_split_of_parts_and_lowest_terms(p, q):
    """The one power-of-2 split: ``_parts`` and ``_lowest_terms`` give the
    odd part and exponent ``split_pow2`` gives for p / q's denominator."""
    f = Fraction(p, q)
    assert _parts(f) == _lowest_terms(p, q) == (f.numerator, *split_pow2(f.denominator))


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=-(10**6), max_value=10**6), st.integers(0, 300))
def test_scale_pow2_multiplies_by_a_power_of_two(value, e):
    """``scale_pow2`` builds its result in lowest terms without a gcd, so
    its numerator and denominator are checked, not only its value."""
    scaled, expected = scale_pow2(value, e), value * 2**e
    assert (scaled.numerator, scaled.denominator) == (expected.numerator, expected.denominator)
    assert scale_pow2(value * Fraction(1, 2**e), e) == value


def test_scale_pow2_on_grain_rounded_tail_bounds():
    lo = Fraction(12345, 2**2000)
    assert scale_pow2(lo, 1900) == Fraction(12345, 2**100)
    assert scale_pow2(Fraction(3, 2**5), 9) == 48
    assert scale_pow2(Fraction(5, 3 * 2**4), 4) == Fraction(5, 3)
