"""Certified rational interval arithmetic for sine, cosine and pi.

This is the only non-rational mathematics in the package, quarantined
here: every value is an exact rational interval guaranteed to contain the
real quantity, at the one precision ``ANGLE_BITS``.  Pi comes from
Machin's formula with alternating-series brackets; sine and cosine use
Taylor polynomials at a dyadic center with the Lagrange remainder (all
derivatives bounded by 1) plus a Lipschitz widening for the interval
argument.  Downstream consumers use only certified signs or rational
midpoints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .vectors import Enclosure, round_dyadic

# The one precision of every angle: the fan needs only the order of its
# angles and roundings of its coefficients to at most 2^-16.
ANGLE_BITS = 44
_PI_BITS = ANGLE_BITS + 4  # four guard bits for the angle ladders


def _atan_interval(inv: int) -> Enclosure:
    """Bracket of atan(1/inv), narrower than 2^-(_PI_BITS + 11), by the Taylor series."""
    x = Fraction(1, inv)
    term = x
    total = Fraction(0)
    m = 0
    threshold = Fraction(1, 1 << (_PI_BITS + 12))
    while True:
        t = term / (2 * m + 1)
        if t < threshold:
            return Enclosure(total - t, total + t)
        total += t if m % 2 == 0 else -t
        term *= x * x
        m += 1


def pi_interval() -> Enclosure:
    """Certified enclosure of pi with width below 2^-(ANGLE_BITS + 4)."""
    a = _atan_interval(5)
    b = _atan_interval(239)
    pi = a.scale(16) - b.scale(4)
    if not pi.width() < Fraction(1, 1 << _PI_BITS):
        raise RuntimeError(f"pi enclosure is not narrower than 2^-{_PI_BITS}")
    return pi


def _taylor_enclosure(theta: Enclosure, start: int) -> Enclosure:
    """Enclosure of sin (start 1) or cos (start 0) over theta, |theta| <= 4.

    Taylor terms (-1)^m c^(2m+start) / (2m+start)! at a dyadic center c,
    summed until one drops below 2^-(ANGLE_BITS+4) and bounds the Lagrange
    remainder; 1-Lipschitz widening covers the rest of the interval.
    """
    c = round_dyadic(theta.midpoint(), ANGLE_BITS + 8)
    if abs(c) > 4:
        raise ValueError("angle out of the supported range")
    threshold = Fraction(1, 1 << (ANGLE_BITS + 4))
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
    return Enclosure(total - r - dev, total + r + dev)


def sin_enclosure(theta: Enclosure) -> Enclosure:
    """Certified enclosure of sin over the angle interval (|angle| <= 4)."""
    return _taylor_enclosure(theta, 1)


def cos_enclosure(theta: Enclosure) -> Enclosure:
    """Certified enclosure of cos over the angle interval (|angle| <= 4)."""
    return _taylor_enclosure(theta, 0)


def base_angles(n: int) -> List[Enclosure]:
    """Angles r * pi / (2n + 2) for r = 0 .. n + 1 (equally spaced fan)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pi = pi_interval()
    return [pi.scale(Fraction(r, 2 * n + 2)) for r in range(n + 2)]


def fan_angles(n: int) -> List[Enclosure]:
    """Midpoint angles (2r - 1) * pi / (4n + 4) for r = 1 .. n + 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pi = pi_interval()
    return [pi.scale(Fraction(2 * r - 1, 4 * n + 4)) for r in range(1, n + 2)]
