"""Certified rational interval arithmetic for sine, cosine and pi.

This is the only non-rational mathematics in the package, quarantined
here: every value is an exact rational interval guaranteed to contain the
real quantity.  Pi comes from Machin's formula with alternating-series
brackets; sine and cosine use Taylor polynomials at a dyadic center with
the Lagrange remainder (all derivatives bounded by 1) plus a Lipschitz
widening for the interval argument.  Downstream consumers use only
certified signs or rational midpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

from .bits import round_dyadic
from .errors import PrecisionBudgetError

DEFAULT_TRIG_BITS = 64


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval with lo > hi")

    @staticmethod
    def point(value: Fraction | int) -> "RatInterval":
        f = Fraction(value)
        return RatInterval(f, f)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "RatInterval":
        return RatInterval(-self.hi, -self.lo)

    def scale(self, factor: Fraction | int) -> "RatInterval":
        f = Fraction(factor)
        if f >= 0:
            return RatInterval(self.lo * f, self.hi * f)
        return RatInterval(self.hi * f, self.lo * f)

    def __mul__(self, other: "RatInterval") -> "RatInterval":
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return RatInterval(min(products), max(products))

    def straddles_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def sign(self) -> int:
        """+1 or -1 when certified; raises when the interval straddles 0."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        raise PrecisionBudgetError("interval straddles zero; sign undetermined")


def _atan_interval(inv: int, bits: int) -> RatInterval:
    """Bracket of atan(1/inv) via the alternating Taylor series."""
    x = Fraction(1, inv)
    term = x
    total = Fraction(0)
    m = 0
    threshold = Fraction(1, 1 << (bits + 6))
    while True:
        t = term / (2 * m + 1)
        if t < threshold:
            return RatInterval(total - t, total + t)
        total += t if m % 2 == 0 else -t
        term *= x * x
        m += 1


_PI_MEMO: Dict[int, RatInterval] = {}


def pi_interval(bits: int = DEFAULT_TRIG_BITS) -> RatInterval:
    """Certified enclosure of pi with width below 2^(-bits)."""
    cached = _PI_MEMO.get(bits)
    if cached is None:
        a = _atan_interval(5, bits + 6)
        b = _atan_interval(239, bits + 6)
        cached = a.scale(16) - b.scale(4)
        if not cached.width() < Fraction(1, 1 << bits):
            raise RuntimeError(f"pi enclosure is not narrower than 2^-{bits}")
        _PI_MEMO[bits] = cached
    return cached


def _taylor_enclosure(theta: RatInterval, bits: int, start: int) -> RatInterval:
    """Enclosure of sin (start 1) or cos (start 0) over theta, |theta| <= 4.

    Taylor terms (-1)^m c^(2m+start) / (2m+start)! at a dyadic center c,
    summed until one drops below 2^-(bits+4) and bounds the Lagrange
    remainder; 1-Lipschitz widening covers the rest of the interval.
    """
    c = round_dyadic(theta.midpoint(), bits + 8)
    if abs(c) > 4:
        raise ValueError("angle out of the supported range")
    threshold = Fraction(1, 1 << (bits + 4))
    total = Fraction(0)
    power = c**start  # c^(2m+start)
    fact = 1  # (2m+start)!
    m = 0
    while True:
        r = abs(power) / fact
        if r < threshold:
            break
        total += power / fact if m % 2 == 0 else -power / fact
        power *= c * c
        fact *= (2 * m + start + 1) * (2 * m + start + 2)
        m += 1
    dev = max(c - theta.lo, theta.hi - c)
    return RatInterval(total - r - dev, total + r + dev)


def sin_enclosure(theta: RatInterval, bits: int = DEFAULT_TRIG_BITS) -> RatInterval:
    """Certified enclosure of sin over the angle interval (|angle| <= 4)."""
    return _taylor_enclosure(theta, bits, 1)


def cos_enclosure(theta: RatInterval, bits: int = DEFAULT_TRIG_BITS) -> RatInterval:
    """Certified enclosure of cos over the angle interval (|angle| <= 4)."""
    return _taylor_enclosure(theta, bits, 0)


def base_angles(n: int, bits: int = DEFAULT_TRIG_BITS) -> List[RatInterval]:
    """Angles r * pi / (2n + 2) for r = 0 .. n + 1 (equally spaced fan)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pi = pi_interval(bits + 4)
    return [pi.scale(Fraction(r, 2 * n + 2)) for r in range(n + 2)]


def fan_angles(n: int, bits: int = DEFAULT_TRIG_BITS) -> List[RatInterval]:
    """Midpoint angles (2r - 1) * pi / (4n + 4) for r = 1 .. n + 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pi = pi_interval(bits + 4)
    return [pi.scale(Fraction(2 * r - 1, 4 * n + 4)) for r in range(1, n + 2)]
