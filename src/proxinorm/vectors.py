"""Exact rationals and their dyadic arithmetic, their intervals, finitely
supported sequences of them, and the pairings.

The series norm weighs stream entry k by 2^(-a_k^2), so every certified
number is a dyadic sum.  Their one home is here: a triple (n, q, e), q > 0,
means n / (q * 2^e); in lowest terms q is odd, the parts (n, odd, e).
:func:`split_pow2` splits the power of 2 off a denominator.  Sums,
comparisons and rescalings work on such triples; beside them sit the
precision targets (:func:`bits_for_target`) and the one rounding, to a
multiple of 2^(-b) (:func:`round_dyadic`).

A ``SparseVec`` stores its nonzero entries at 1-based indices, as integers
over one denominator; it carries points of the sequence space (sup-norm
side) and finitely supported functionals (l1 side), and the pairing is an
integer dot product.  An ``Enclosure`` is the one interval type: norm,
derivative and trigonometric enclosures alike.  It keeps its lower end lo
and its width hi - lo, each as lowest-terms parts (n, odd, e), so a
dyadic number stores its power of 2 as an exponent; no other module knows
that layout.  Every operation on them is exact.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple, Union

from .errors import InputFormatError

RationalLike = Union[Fraction, int]
_Ints = Tuple[int, ...]


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if type(value) is int:  # not a bool or other subclass
        return Fraction(value)
    raise TypeError(f"not a rational value: {value!r}")


def _as_index(value: object) -> int:
    """A coordinate index: an ``int`` (not a ``bool`` or other subclass), at
    least 1."""
    if type(value) is not int:
        raise TypeError(f"not an index: {value!r}")
    if value < 1:
        raise ValueError(f"index {value} is not a positive integer")
    return value


def _is_digits(text: str) -> bool:
    # bytes.isdigit accepts only ASCII digits, and scans them faster than str.isdigit
    return text.isascii() and text.encode().isdigit()


def _is_int_literal(text: str) -> bool:  # what str(int) writes
    return _is_digits(text.removeprefix("-"))


def _to_int(literal: str) -> int:
    """``int(literal)`` for an integer literal of any length: past the int/str
    digit limit, the halves are converted and joined."""
    try:
        return int(literal)
    except ValueError:
        pass
    if literal.startswith("-"):
        return -_to_int(literal[1:])
    mid = len(literal) // 2
    return _to_int(literal[:mid]) * 10 ** (len(literal) - mid) + _to_int(literal[mid:])


def _to_str(n: int) -> str:
    """``str(n)`` for an int of any size.  Past the int/str digit limit, n
    becomes a ``Decimal`` by splitting its bits in halves, as CPython
    3.12's ``_pylong.int_to_decimal_string`` does: ``decimal`` multiplies
    in subquadratic time and prints in linear time, where ``divmod`` by a
    power of 10 is quadratic."""
    try:
        return str(n)
    except ValueError:
        pass
    import decimal  # only past the digit limit

    powers: Dict[int, decimal.Decimal] = {}

    def pow2(w: int) -> decimal.Decimal:  # 2^w, exact
        if w not in powers:
            half = w >> 1
            powers[w] = decimal.Decimal(2) ** w if w <= 128 else pow2(half) * pow2(w - half)
        return powers[w]

    def convert(m: int, w: int) -> decimal.Decimal:  # 0 <= m < 2^w
        if w <= 128:
            return decimal.Decimal(m)
        half = w >> 1
        high = m >> half
        return convert(m - (high << half), half) + convert(high, w - half) * pow2(half)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        digits = str(convert(abs(n), abs(n).bit_length()))
    return "-" + digits if n < 0 else digits


def split_pow2(d: int) -> Tuple[int, int]:
    """(q, s) with d = q * 2^s and q odd, for d > 0."""
    s = (d & -d).bit_length() - 1
    return d >> s, s


def _lowest_terms(p: int, q: int) -> Tuple[int, int, int]:
    """p / q, q > 0, in lowest terms as (n, odd, e): n / (odd * 2^e), odd
    odd.  The power of 2 that p and q share is shifted out and the one gcd
    taken is with the odd part of q, so a denominator with a small odd part
    needs no big gcd."""
    return _reduce(p, *split_pow2(q))


def _reduce(p: int, odd: int, e: int) -> Tuple[int, int, int]:
    """p / (odd * 2^e), odd odd, in the lowest terms of :func:`_lowest_terms`."""
    z = (p & -p).bit_length() - 1  # -1 when p == 0
    if 0 <= z < e:
        p >>= z
        e -= z
    else:
        p >>= e
        e = 0
    g = gcd(p, odd)
    if g != 1:
        p //= g
        odd //= g
    return p, odd, e


def _sum(a: Tuple[int, int, int], b: Tuple[int, int, int], sign: int = 1) -> Tuple[int, int, int]:
    """a + sign * b for parts (n, odd, e), unreduced: over the product of the
    odd parts (one of them when they are equal) and the larger power of 2,
    by shifts."""
    (p, q, e), (r, s, f) = a, b
    E = max(e, f)
    if q != s:
        p, r, q = p * s, r * q, q * s
    return (p << (E - e)) + sign * (r << (E - f)), q, E


def _parts(value: RationalLike) -> Tuple[int, int, int]:
    """The (n, odd, e) of :func:`_lowest_terms` for a value already in
    lowest terms: only the power of 2 is split off its denominator."""
    return (value.numerator, *split_pow2(value.denominator))


def _parts_less(a: Tuple[int, int, int], b: Tuple[int, int, int]) -> bool:
    """p / (q * 2^e) < r / (s * 2^f) for a = (p, q, e) and b = (r, s, f),
    q, s > 0, neither necessarily in lowest terms: cross-multiplied by q
    and s, the powers of 2 aligned by one shift."""
    (p, q, e), (r, s, f) = a, b
    if f >= e:
        return (p * s) << (f - e) < r * q
    return p * s < (r * q) << (e - f)


class _LowestTerms:
    """A ``numbers.Rational`` already in lowest terms, as ``Fraction(r)``
    takes it: ``r.numerator`` and ``r.denominator`` are copied unchanged.
    It is built from the parts (n, odd, e) of n / (odd * 2^e)."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, parts: Tuple[int, int, int]):
        self.numerator, self.denominator = parts[0], parts[1] << parts[2]


numbers.Rational.register(_LowestTerms)


def scale_pow2(value: Fraction, e: int) -> Fraction:
    """value * 2^e for e >= 0: the power of 2 leaves the denominator's parts
    before the numerator takes the rest, and the result stays in lowest
    terms, so no gcd is taken."""
    n, odd, s = _parts(value)
    shift = min(s, e)
    return Fraction(_LowestTerms((n << (e - shift), odd, s - shift)))


def dyadic_parts(terms: Iterable[Tuple[int, int, int]]) -> Tuple[int, int, int]:
    """(num, L, E) with the sum of the terms (n, q, e) equal to
    num / (L * 2^E): L = lcm(q), E = max(e), integer shifts only."""
    terms = list(terms)
    lcm_q = lcm(*(q for _, q, _ in terms))
    E = max((e for _, _, e in terms), default=0)
    num = 0
    for n, q, e in terms:
        num += n * (lcm_q // q) << (E - e)
    return num, lcm_q, E


def dyadic_sum(terms: Iterable[Tuple[int, int, int]]) -> Fraction:
    """Exact sum of the terms (n, q, e), e >= 0.

    Accumulated over the denominator lcm(q) * 2^max(e) in integer
    arithmetic, so the Fraction normalization happens once.
    """
    num, lcm_q, E = dyadic_parts(terms)
    if num == 0:
        return Fraction(0)
    shift = min((num & -num).bit_length() - 1, E)
    return Fraction(num >> shift, lcm_q << (E - shift))


def bits_for_target(t: Fraction) -> int:
    """Smallest p >= 0 with 2^(-p) <= t, for t > 0 (exact)."""
    if t <= 0:
        raise ValueError("target must be positive")
    if t >= 1:
        return 0
    a, b = t.numerator, t.denominator
    p = b.bit_length() - a.bit_length()
    if a << p < b:
        p += 1
    return p


def floor_pow2(f: Fraction) -> Fraction:
    """Largest power of two <= f, for f > 0."""
    if f <= 0:
        raise ValueError("need a positive value")
    e = f.numerator.bit_length() - f.denominator.bit_length()
    p = Fraction(2) ** e
    if p > f:
        p /= 2
    return p


def round_dyadic(value: Fraction, bits: int, up: bool = False) -> Fraction:
    """Floor of value to a multiple of 2^(-bits); the ceiling when ``up``."""
    if up:
        num = -((-value.numerator << bits) // value.denominator)
    else:
        num = (value.numerator << bits) // value.denominator
    return Fraction(num, 1 << bits)


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` as :func:`format_rational` writes them: ``p``
    an optional ``-`` and ASCII digits, ``q`` ASCII digits, nonzero."""
    return Fraction(_LowestTerms(_parse_parts(text)))


def _parse_parts(text: str) -> Tuple[int, int, int]:
    """:func:`parse_rational`'s value as the parts of :func:`_lowest_terms`."""
    if not isinstance(text, str):
        raise InputFormatError(f"rational must be a string, got {type(text).__name__}")
    num, slash, den = text.partition("/")
    if _is_int_literal(num) and (not slash or _is_digits(den)):
        q = _to_int(den) if slash else 1
        if q:
            return _lowest_terms(_to_int(num), q)
    raise InputFormatError(f"bad rational literal {_echo(text)}")


def _echo(text: str, limit: int = 40) -> str:
    """The literal for an error message: whole if short, else its first
    ``limit`` characters and its length."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


def format_rational(value: Fraction) -> str:
    """Inverse of :func:`parse_rational`; integers drop the ``/1``."""
    try:
        num, den = str(value.numerator), str(value.denominator)
    except ValueError:  # past the int/str digit limit
        num, den = _to_str(value.numerator), _to_str(value.denominator)
    return num if den == "1" else f"{num}/{den}"


def parse_int(value: object, what: str, key: bool = False) -> int:
    """A JSON integer (not a bool, not a float); ``what`` names it in errors.
    A ``key`` (JSON keys are strings) must be an integer's decimal digits."""
    if key and isinstance(value, str) and _is_int_literal(value):
        return _to_int(value)
    if key or not isinstance(value, int) or isinstance(value, bool):
        raise InputFormatError(f"{what} must be an integer, got {value!r}")
    return value


class Enclosure:
    """Closed interval [lo, hi] with exact rational endpoints, certified to
    contain a real quantity.  ``depth`` is the series truncation depth it
    was computed at; 0 for values that are not series sums.  Negation,
    absolute value and scaling keep the depth; a difference takes the
    larger one.  Immutable; equal fields make equal enclosures.

    It stores lo and the width hi - lo, each as its lowest-terms parts, and
    no hi: a deep enclosure's lo is a long number and its width a short
    one, so :meth:`around` states [c - below, c + above] by shifts and one
    gcd with small odd parts.  ``lo``, ``hi`` and ``width`` build their
    ``Fraction`` when asked for; order, sign, negation and equality use
    the parts themselves, and multiply a long numerator only by an odd
    part."""

    __slots__ = ("_lo", "_width", "depth")
    depth: int

    def __init__(self, lo: Fraction, hi: Fraction, depth: int = 0):
        lo_parts = _parts(lo)
        self._set(lo_parts, _reduce(*_sum(_parts(hi), lo_parts, -1)), depth)

    def _set(
        self, lo: Tuple[int, int, int], width: Tuple[int, int, int], depth: int
    ) -> "Enclosure":
        if width[0] < 0:
            raise ValueError("enclosure with lo > hi")
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_width", width)
        object.__setattr__(self, "depth", depth)
        return self

    @staticmethod
    def around(
        centre: RationalLike, below: RationalLike, above: RationalLike, depth: int
    ) -> "Enclosure":
        """[centre - below, centre + above]."""
        c, b = _parts(centre), _parts(below)
        return _enclosure(_reduce(*_sum(c, b, -1)), _reduce(*_sum(b, _parts(above))), depth)

    def _hi(self) -> Tuple[int, int, int]:
        """hi as unreduced parts."""
        return _sum(self._lo, self._width)

    @property
    def lo(self) -> Fraction:
        return Fraction(_LowestTerms(self._lo))

    @property
    def hi(self) -> Fraction:
        return Fraction(_LowestTerms(_reduce(*self._hi())))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _enclosure, (self._lo, self._width, self.depth)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._lo, self._width, self.depth) == (other._lo, other._width, other.depth)

    def __hash__(self) -> int:
        return hash((self._lo, self._width, self.depth))

    def __repr__(self) -> str:
        return f"Enclosure(lo={self.lo!r}, hi={self.hi!r}, depth={self.depth!r})"

    @staticmethod
    def point(value: RationalLike) -> "Enclosure":
        f = _as_fraction(value)
        return Enclosure(f, f)

    def width(self) -> Fraction:
        return Fraction(_LowestTerms(self._width))

    def midpoint(self) -> Fraction:
        n, q, e = self._width
        return Fraction(_LowestTerms(_reduce(*_sum(self._lo, (n, q, e + 1)))))

    def below(self, other: "Enclosure") -> bool:
        """Whether this interval lies strictly below ``other``: hi < other.lo."""
        return _parts_less(self._hi(), other._lo)

    def sign(self) -> int:
        """+1 or -1 when the interval lies on one side of 0; 0 when it
        contains 0."""
        n, q, e = self._lo
        if n > 0:
            return 1
        return -1 if n < 0 and _parts_less(self._width, (-n, q, e)) else 0

    def has_endpoints(self, lo: Tuple[int, int], width: Tuple[int, int]) -> bool:
        """Whether lo = (p, q) and width = (r, s), q, s > 0 in any terms, give
        lo = p / q and hi - lo = r / s; a denominator that is a small odd
        number times a power of 2 costs shifts and one small gcd."""
        return _lowest_terms(*lo) == self._lo and _lowest_terms(*width) == self._width

    def intersection(self, other: "Enclosure") -> "Enclosure":
        """[max lo, min hi] at the larger depth: where two enclosures of one
        quantity both put it.  Disjoint intervals raise the ValueError of
        crossed endpoints."""
        low = other if _parts_less(self._lo, other._lo) else self
        mine, theirs = self._hi(), other._hi()
        high, hi = (other, theirs) if _parts_less(theirs, mine) else (self, mine)
        width = high._width if high is low else _reduce(*_sum(hi, low._lo, -1))
        return _enclosure(low._lo, width, max(self.depth, other.depth))

    def __neg__(self) -> "Enclosure":
        n, q, e = _reduce(*self._hi())
        return _enclosure((-n, q, e), self._width, self.depth)

    def __abs__(self) -> "Enclosure":
        """{|t| : t in [lo, hi]}."""
        if self._lo[0] >= 0:
            return self
        neg = -self
        if neg._lo[0] >= 0:
            return neg
        return _enclosure((0, 1, 0), _parts(max(-self.lo, -neg.lo)), self.depth)

    def __sub__(self, other: "Enclosure") -> "Enclosure":
        lo, width = _sum(self._lo, other._hi(), -1), _sum(self._width, other._width)
        return _enclosure(_reduce(*lo), _reduce(*width), max(self.depth, other.depth))

    def scale(self, factor: RationalLike) -> "Enclosure":
        f = _as_fraction(factor)
        end = self.lo if f >= 0 else self.hi
        return _enclosure(_parts(end * f), _parts(self.width() * abs(f)), self.depth)

    def to_json(self) -> Dict[str, object]:
        return {"lo": format_rational(self.lo), "hi": format_rational(self.hi), "depth": self.depth}

    @staticmethod
    def from_json(obj: object, owner: str = "enclosure") -> "Enclosure":
        """Inverse of :meth:`to_json`; ``owner`` names the field in errors."""
        if not isinstance(obj, dict):
            raise InputFormatError(f"{owner} must be a JSON object")
        for field in ("lo", "hi", "depth"):
            if field not in obj:
                raise InputFormatError(f"{owner} missing field {field!r}")
        lo, hi = _parse_parts(obj["lo"]), _parse_parts(obj["hi"])
        depth = parse_int(obj["depth"], f"{owner} depth")
        return _enclosure(lo, _reduce(*_sum(hi, lo, -1)), depth)


def _enclosure(lo: Tuple[int, int, int], width: Tuple[int, int, int], depth: int) -> Enclosure:
    """The enclosure of stored parts, as :meth:`Enclosure._set` checks them."""
    return Enclosure.__new__(Enclosure)._set(lo, width, depth)


class SparseVec:
    """Immutable finitely supported sequence with exact rational entries.

    Invariants: ints and tuples only: a denominator den > 0, and nonzero
    numerators at ascending positive indices (two tuples, no 56-byte pair
    per entry), den coprime to them all, so equal vectors store equal
    integers.  ``items()`` and ``[]`` build ``Fraction``s on demand.
    """

    __slots__ = ("_den", "_idx", "_nums", "_hash")

    def __init__(self, entries: Mapping[int, RationalLike] | None = None):
        terms = []
        for i, val in (entries or {}).items():
            if type(i) is not int or i < 1:
                _as_index(i)  # raises
            terms.append((i, *_parts(_as_fraction(val))))
        self._den, self._idx, self._nums = _over_lcm(sorted(t for t in terms if t[1]))
        self._hash: int | None = None  # taken when first asked for

    @staticmethod
    def unit(index: int) -> "SparseVec":
        """The coordinate vector e_index."""
        return SparseVec({index: 1})

    @staticmethod
    def zero() -> "SparseVec":
        return _ZERO

    def integers(self) -> Tuple[int, _Ints, _Ints]:
        """(den, indices, numerators): entry indices[j] is numerators[j] / den."""
        return self._den, self._idx, self._nums

    def support(self) -> Tuple[int, ...]:
        """Sorted tuple of indices carrying nonzero entries."""
        return self._idx

    def items(self) -> Iterator[Tuple[int, Fraction]]:
        return ((i, _fraction(n, self._den)) for i, n in zip(self._idx, self._nums))

    def __getitem__(self, index: int) -> Fraction:
        if index in self._idx:
            return _fraction(self._nums[self._idx.index(index)], self._den)
        return Fraction(0)

    def __len__(self) -> int:
        return len(self._idx)

    def is_zero(self) -> bool:
        return not self._idx

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVec):
            return NotImplemented
        return (self._den, self._idx, self._nums) == (other._den, other._idx, other._nums)

    def __hash__(self) -> int:
        if self._hash is None:
            # as hash(-1) == hash(-2), entries -1 and -2 would collide; 2n is never -1
            self._hash = hash((self._den, self._idx, tuple([2 * n for n in self._nums])))
        return self._hash

    def __add__(self, other: "SparseVec") -> "SparseVec":
        den = lcm(self._den, other._den)
        fx, fy = den // self._den, den // other._den
        acc = dict(zip(self._idx, [n * fx for n in self._nums]))
        for i, n in zip(other._idx, other._nums):
            acc[i] = acc.get(i, 0) + n * fy
        idx = sorted(acc)
        return _canonical(den, idx, [acc[i] for i in idx])

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        return self + (-other)

    def __neg__(self) -> "SparseVec":
        return _vec(self._den, self._idx, tuple([-n for n in self._nums]))

    def scale(self, factor: RationalLike) -> "SparseVec":
        p, q = _as_fraction(factor).as_integer_ratio()
        return _canonical(self._den * q, self._idx, [p * n for n in self._nums])

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {format_rational(v)}" for i, v in self.items())
        return f"SparseVec({{{body}}})"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> Dict[str, str]:
        """Wire format: index string -> rational string, indices sorted."""
        return {str(i): format_rational(v) for i, v in self.items()}

    @staticmethod
    def from_json(obj: object) -> "SparseVec":
        if not isinstance(obj, dict):
            raise InputFormatError(f"sparse vector must be a JSON object, got {type(obj).__name__}")
        seen, terms = set(), []
        for key, val in obj.items():
            idx = parse_int(key, "vector index", key=True)
            if idx < 1:
                raise InputFormatError(f"vector index {key!r} must be >= 1")
            if idx in seen:  # "1" and "01"
                raise InputFormatError(f"vector index {key!r} names index {idx} twice")
            seen.add(idx)
            if not isinstance(val, str):
                raise InputFormatError(f"entry at index {key!r} must be a rational string")
            terms.append((idx, *_parse_parts(val)))
        return _vec(*_over_lcm(sorted(t for t in terms if t[1])))


def _vec(den: int, idx: _Ints, nums: _Ints) -> SparseVec:
    vec = SparseVec.__new__(SparseVec)
    vec._den, vec._idx, vec._nums, vec._hash = den, idx, nums, None
    return vec


def _over_lcm(terms: Sequence[Tuple[int, int, int, int]]) -> Tuple[int, _Ints, _Ints]:
    """The canonical (den, idx, nums) of nonzero lowest-terms entries
    n / (odd * 2^e) at (i, n, odd, e), i ascending.  den is their lcm, so no
    gcd is needed, and a power of 2 costs a shift, not a division."""
    L, E = 1, 0
    for _, _, odd, e in terms:
        if odd != L:
            L = lcm(L, odd)
        E = max(E, e)
    nums = tuple([n * (L // odd) << (E - e) for _, n, odd, e in terms])
    return L << E, tuple([t[0] for t in terms]), nums


def _fraction(n: int, den: int) -> Fraction:
    """n / den, den > 0; past 64 bits via :func:`_lowest_terms`, which shifts out 2s."""
    if den.bit_length() <= 64:
        return Fraction(n, den)
    return Fraction(_LowestTerms(_lowest_terms(n, den)))


def _canonical(den: int, idx: Sequence[int], nums: Sequence[int]) -> SparseVec:
    """nums[j] / den at idx[j] in canonical form: zeros dropped, gcd out."""
    if 0 in nums:
        idx, nums = [i for i, n in zip(idx, nums) if n], [n for n in nums if n]
    g = gcd(den, *nums)
    return _vec(den // g, tuple(idx), tuple([n // g for n in nums]))


_ZERO = _vec(1, (), ())


def _dot(x: SparseVec, phi: SparseVec) -> int:
    """<x, phi> times the product of the two denominators."""
    a, b = (x, phi) if len(x._idx) <= len(phi._idx) else (phi, x)
    idx, nums = b._idx, b._nums  # short: scanned, not put in a dict
    return sum([n * nums[idx.index(i)] for i, n in zip(a._idx, a._nums) if i in idx])


def pair(x: SparseVec, phi: SparseVec) -> Fraction:
    """Exact duality pairing: sum over i of x_i * phi_i."""
    return _fraction(_dot(x, phi), x._den * phi._den)


def l1_norm(x: SparseVec) -> Fraction:
    """Sum of absolute values of the entries."""
    return _fraction(sum(map(abs, x._nums)), x._den)


def sup_norm(x: SparseVec) -> Fraction:
    """Largest absolute entry; 0 for the zero vector."""
    return _fraction(max(map(abs, x._nums), default=0), x._den)


def sgn(t: Fraction | int) -> int:
    """Sign with the convention sgn(0) = +1."""
    return 1 if t >= 0 else -1
