"""Exact dyadic-threshold helpers shared by the enclosure engines."""

from __future__ import annotations

from fractions import Fraction


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
