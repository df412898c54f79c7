"""Exact dyadic arithmetic: thresholds, directed rounding, common-denominator sums."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Tuple


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


def dyadic_lt(num: int, exp: int, bound: Fraction) -> bool:
    """Exact comparison num / 2^exp < bound."""
    return num * bound.denominator < bound.numerator << exp


def dyadic_sum(terms: Iterable[Tuple[int, int, int]]) -> Fraction:
    """Exact sum of n / (q * 2^e) over ``(n, q, e)`` terms, q > 0, e >= 0.

    Accumulated over the denominator lcm(q) * 2^max(e) in integer
    arithmetic, so the Fraction normalization happens once.
    """
    terms = list(terms)
    lcm_q = lcm(*(q for _, q, _ in terms))
    E = max((e for _, _, e in terms), default=0)
    num = 0
    for n, q, e in terms:
        num += n * (lcm_q // q) << (E - e)
    if num == 0:
        return Fraction(0)
    shift = min((num & -num).bit_length() - 1, E)
    return Fraction(num >> shift, lcm_q << (E - shift))
