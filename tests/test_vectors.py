import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from proxinorm.errors import InputFormatError
from proxinorm.vectors import (
    Enclosure,
    SparseVec,
    _echo,
    l1_norm,
    pair,
    parse_rational,
    sgn,
    sup_norm,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=16)
vectors = st.dictionaries(st.integers(1, 12), rationals, max_size=5).map(SparseVec)


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


@given(vectors, vectors)
def test_hoelder(x, phi):
    assert abs(pair(x, phi)) <= sup_norm(x) * l1_norm(phi)


@given(vectors, vectors, vectors, st.fractions(max_denominator=8))
def test_pair_bilinear(x, y, phi, q):
    assert pair(x + y, phi) == pair(x, phi) + pair(y, phi)
    assert pair(x.scale(q), phi) == q * pair(x, phi)
    assert pair(phi, x) == pair(x, phi)


@given(vectors)
def test_no_zero_entries_stored(x):
    assert all(v != 0 for _, v in x.items())
    assert x.support() == tuple(sorted(i for i, _ in x.items()))


@given(vectors)
def test_json_roundtrip(x):
    assert SparseVec.from_json(x.to_json()) == x


@given(vectors, vectors)
def test_add_sub_consistent(x, y):
    assert (x + y) - y == x
    assert x + (-x) == SparseVec.zero()


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
