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


def split_pow2(d: int) -> Tuple[int, int]:
    """(q, s) with d = q * 2^s and q odd, for d > 0."""
    s = (d & -d).bit_length() - 1
    return d >> s, s


def scale_pow2(value: Fraction, e: int) -> Fraction:
    """value * 2^e for e >= 0, moving the power of two between numerator
    and denominator instead of dividing by a Fraction 2^(-e)."""
    q, s = split_pow2(value.denominator)
    if s >= e:
        return Fraction(value.numerator, value.denominator >> e)
    return Fraction(value.numerator << (e - s), q)


def dyadic_parts(terms: Iterable[Tuple[int, int, int]]) -> Tuple[int, int, int]:
    """(num, L, E) with the sum of n / (q * 2^e) over the terms equal to
    num / (L * 2^E): L = lcm(q), E = max(e), integer shifts only."""
    terms = list(terms)
    lcm_q = lcm(*(q for _, q, _ in terms))
    E = max((e for _, _, e in terms), default=0)
    num = 0
    for n, q, e in terms:
        num += n * (lcm_q // q) << (E - e)
    return num, lcm_q, E


def dyadic_sum(terms: Iterable[Tuple[int, int, int]]) -> Fraction:
    """Exact sum of n / (q * 2^e) over ``(n, q, e)`` terms, q > 0, e >= 0.

    Accumulated over the denominator lcm(q) * 2^max(e) in integer
    arithmetic, so the Fraction normalization happens once.
    """
    num, lcm_q, E = dyadic_parts(terms)
    if num == 0:
        return Fraction(0)
    shift = min((num & -num).bit_length() - 1, E)
    return Fraction(num >> shift, lcm_q << (E - shift))
