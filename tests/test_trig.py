from fractions import Fraction

import mpmath
import pytest

from proxinorm.trig import (
    ANGLE_BITS,
    base_angles,
    cos_enclosure,
    fan_angles,
    pi_interval,
    sin_enclosure,
)
from proxinorm.vectors import Enclosure

mpmath.mp.dps = 60


def mp_fraction(x) -> Fraction:
    """High-precision oracle value as an exact rational (50 digits)."""
    return Fraction(mpmath.nstr(x, 50, strip_zeros=False))


def test_pi_interval_contains_oracle():
    pi = pi_interval()
    oracle = mp_fraction(mpmath.pi)
    assert pi.lo < oracle < pi.hi
    assert pi.width() < Fraction(1, 1 << (ANGLE_BITS + 4))


@pytest.mark.parametrize("num,den", [(1, 7), (1, 3), (1, 2), (2, 3), (5, 4), (3, 2)])
def test_sin_cos_enclose_oracle(num, den):
    theta = Enclosure.point(Fraction(num, den))
    s = sin_enclosure(theta)
    c = cos_enclosure(theta)
    angle = mpmath.mpf(num) / den
    assert s.lo < mp_fraction(mpmath.sin(angle)) < s.hi
    assert c.lo < mp_fraction(mpmath.cos(angle)) < c.hi
    assert s.width() < Fraction(1, 1 << ANGLE_BITS)
    assert c.width() < Fraction(1, 1 << ANGLE_BITS)


def test_sin_cos_on_wide_interval():
    theta = Enclosure(Fraction(1, 2), Fraction(9, 16))
    s = sin_enclosure(theta)
    for t in (Fraction(1, 2), Fraction(17, 32), Fraction(9, 16)):
        assert s.lo < mp_fraction(mpmath.sin(mpmath.mpf(t.numerator) / t.denominator)) < s.hi


def test_fan_angles_inside_first_quadrant():
    pi = pi_interval()
    for n in range(2, 7):
        for zeta in fan_angles(n):
            assert 0 < zeta.lo and zeta.hi < pi.hi / 2
            assert sin_enclosure(zeta).sign() == 1
            assert cos_enclosure(zeta).sign() == 1


def test_base_angles_match_oracle():
    for n in range(2, 7):
        for r, beta in enumerate(base_angles(n)):
            oracle = mp_fraction(mpmath.pi * r / (2 * n + 2))
            assert beta.lo <= oracle <= beta.hi
            assert beta.width() < Fraction(1, 1 << ANGLE_BITS)
        for r, zeta in enumerate(fan_angles(n), start=1):
            oracle = mp_fraction(mpmath.pi * (2 * r - 1) / (4 * n + 4))
            assert zeta.lo < oracle < zeta.hi
            assert zeta.width() < Fraction(1, 1 << ANGLE_BITS)


def test_sign_is_zero_on_straddle():
    assert Enclosure(Fraction(-1), Fraction(1)).sign() == 0
    assert Enclosure(Fraction(0), Fraction(1)).sign() == 0


def test_interval_arithmetic_orientation():
    a = Enclosure(Fraction(1), Fraction(2))
    b = Enclosure(Fraction(-3), Fraction(-1))
    assert (a - b).lo == 2 and (a - b).hi == 5
    assert (-b).lo == 1 and (-b).hi == 3
    assert a.scale(-2).lo == -4 and a.scale(-2).hi == -2
