"""Exact rationals, their intervals, finitely supported sequences of them,
and the pairings.

A ``SparseVec`` stores only nonzero entries, keyed by 1-based coordinate
index.  The same type carries points of the sequence space (sup-norm side)
and finitely supported functionals (l1 side); the pairing is the
coordinatewise sum of products.  An ``Enclosure`` is the one interval type:
norm, derivative and trigonometric enclosures alike.  Every operation here
is exact: no rounding exists anywhere in this module.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Dict, Iterator, Mapping, Tuple, Union

from .errors import InputFormatError

RationalLike = Union[Fraction, int]


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


def _is_int_literal(text: str) -> bool:  # what str(int) writes
    return text.isascii() and text.removeprefix("-").isdigit()


def _to_int(literal: str) -> int:
    try:
        return int(literal)
    except ValueError:  # past the int/str digit limit; Decimal converts exactly
        return int(Decimal(literal))


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` as :func:`format_rational` writes them: ``p``
    an optional ``-`` and ASCII digits, ``q`` ASCII digits, nonzero."""
    if not isinstance(text, str):
        raise InputFormatError(f"rational must be a string, got {type(text).__name__}")
    num, slash, den = text.partition("/")
    if _is_int_literal(num) and (not slash or den.isascii() and den.isdigit()):
        q = _to_int(den) if slash else 1
        if q:
            return Fraction(_to_int(num), q)
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
    except ValueError:  # past the int/str digit limit; str(Decimal(n)) == str(n)
        num, den = str(Decimal(value.numerator)), str(Decimal(value.denominator))
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
    larger one.  Immutable; equal fields make equal enclosures."""

    __slots__ = ("lo", "hi", "depth")
    lo: Fraction
    hi: Fraction
    depth: int

    def __init__(self, lo: Fraction, hi: Fraction, depth: int = 0):
        if lo > hi:
            raise ValueError("enclosure with lo > hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "depth", depth)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi, self.depth) == (other.lo, other.hi, other.depth)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.depth))

    def __repr__(self) -> str:
        return f"Enclosure(lo={self.lo!r}, hi={self.hi!r}, depth={self.depth!r})"

    @staticmethod
    def point(value: RationalLike) -> "Enclosure":
        f = _as_fraction(value)
        return Enclosure(f, f)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def sign(self) -> int:
        """+1 or -1 when the interval lies on one side of 0; 0 when it
        contains 0."""
        return (self.lo > 0) - (self.hi < 0)

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo, self.depth)

    def __abs__(self) -> "Enclosure":
        """{|t| : t in [lo, hi]}."""
        return Enclosure(max(self.lo, -self.hi, _FRAC_ZERO), max(self.hi, -self.lo), self.depth)

    def __sub__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo - other.hi, self.hi - other.lo, max(self.depth, other.depth))

    def scale(self, factor: RationalLike) -> "Enclosure":
        f = _as_fraction(factor)
        lo, hi = self.lo * f, self.hi * f
        return Enclosure(lo, hi, self.depth) if f >= 0 else Enclosure(hi, lo, self.depth)

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
        lo, hi = parse_rational(obj["lo"]), parse_rational(obj["hi"])
        return Enclosure(lo, hi, parse_int(obj["depth"], f"{owner} depth"))


class SparseVec:
    """Immutable finitely supported sequence with exact rational entries.

    Invariants: no stored entry is zero, all indices are positive integers,
    and entries are `fractions.Fraction` in lowest terms (guaranteed by the
    Fraction type itself).
    """

    __slots__ = ("_entries", "_key", "_hash")

    def __init__(self, entries: Mapping[int, RationalLike] | None = None):
        data: Dict[int, Fraction] = {}
        if entries:
            for i, val in entries.items():
                if type(i) is not int or i < 1:
                    _as_index(i)  # raises
                f = _as_fraction(val)
                if f != 0:
                    data[i] = f
        self._entries = data
        self._key: Tuple[Tuple[int, Fraction], ...] = tuple(sorted(data.items()))
        self._hash = hash(self._key)

    @staticmethod
    def unit(index: int) -> "SparseVec":
        """The coordinate vector e_index."""
        return SparseVec({index: 1})

    @staticmethod
    def zero() -> "SparseVec":
        return _ZERO

    def support(self) -> Tuple[int, ...]:
        """Sorted tuple of indices carrying nonzero entries."""
        return tuple(i for i, _ in self._key)

    def items(self) -> Iterator[Tuple[int, Fraction]]:
        return iter(self._key)

    def __getitem__(self, index: int) -> Fraction:
        return self._entries.get(index, _FRAC_ZERO)

    def __len__(self) -> int:
        return len(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVec):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __add__(self, other: "SparseVec") -> "SparseVec":
        data = dict(self._entries)
        for i, v in other._entries.items():
            s = data.get(i, _FRAC_ZERO) + v
            if s == 0:
                data.pop(i, None)
            else:
                data[i] = s
        return SparseVec(data)

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        return self + (-other)

    def __neg__(self) -> "SparseVec":
        return SparseVec({i: -v for i, v in self._entries.items()})

    def scale(self, factor: RationalLike) -> "SparseVec":
        f = _as_fraction(factor)
        if f == 0:
            return _ZERO
        return SparseVec({i: f * v for i, v in self._entries.items()})

    def max_support(self) -> int:
        """Largest index in the support; 0 for the zero vector."""
        return self._key[-1][0] if self._key else 0

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {format_rational(v)}" for i, v in self._key)
        return f"SparseVec({{{body}}})"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> Dict[str, str]:
        """Wire format: index string -> rational string, indices sorted."""
        return {str(i): format_rational(v) for i, v in self._key}

    @staticmethod
    def from_json(obj: object) -> "SparseVec":
        if not isinstance(obj, dict):
            raise InputFormatError(f"sparse vector must be a JSON object, got {type(obj).__name__}")
        data: Dict[int, Fraction] = {}
        for key, val in obj.items():
            idx = parse_int(key, "vector index", key=True)
            if idx < 1:
                raise InputFormatError(f"vector index {key!r} must be >= 1")
            if not isinstance(val, str):
                raise InputFormatError(f"entry at index {key!r} must be a rational string")
            data[idx] = parse_rational(val)
        return SparseVec(data)


_FRAC_ZERO = Fraction(0)
_ZERO = SparseVec()


def pair(x: SparseVec, phi: SparseVec) -> Fraction:
    """Exact duality pairing: sum over i of x_i * phi_i."""
    if len(phi) < len(x):
        x, phi = phi, x
    total = _FRAC_ZERO
    for i, v in x.items():
        w = phi[i]
        if w != 0:
            total += v * w
    return total


def l1_norm(x: SparseVec) -> Fraction:
    """Sum of absolute values of the entries."""
    total = _FRAC_ZERO
    for _, v in x.items():
        total += abs(v)
    return total


def sup_norm(x: SparseVec) -> Fraction:
    """Largest absolute entry; 0 for the zero vector."""
    best = _FRAC_ZERO
    for _, v in x.items():
        a = abs(v)
        if a > best:
            best = a
    return best


def sgn(t: Fraction | int) -> int:
    """Sign with the convention sgn(0) = +1."""
    return 1 if t >= 0 else -1
