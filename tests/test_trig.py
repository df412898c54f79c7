from fractions import Fraction

import mpmath
import pytest

from proxinorm.trig import (
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
    pi = pi_interval(96)
    oracle = mp_fraction(mpmath.pi)
    assert pi.lo < oracle < pi.hi
    assert pi.width() < Fraction(1, 1 << 96)


def test_pi_width_shrinks_with_bits():
    assert pi_interval(128).width() < pi_interval(32).width()


@pytest.mark.parametrize("num,den", [(1, 7), (1, 3), (1, 2), (2, 3), (5, 4), (3, 2)])
def test_sin_cos_enclose_oracle(num, den):
    theta = Enclosure.point(Fraction(num, den))
    s = sin_enclosure(theta, 80)
    c = cos_enclosure(theta, 80)
    angle = mpmath.mpf(num) / den
    assert s.lo < mp_fraction(mpmath.sin(angle)) < s.hi
    assert c.lo < mp_fraction(mpmath.cos(angle)) < c.hi
    assert s.width() < Fraction(1, 1 << 70)


def test_sin_cos_on_wide_interval():
    theta = Enclosure(Fraction(1, 2), Fraction(9, 16))
    s = sin_enclosure(theta, 64)
    for t in (Fraction(1, 2), Fraction(17, 32), Fraction(9, 16)):
        assert s.lo < mp_fraction(mpmath.sin(mpmath.mpf(t.numerator) / t.denominator)) < s.hi


def test_fan_angles_inside_first_quadrant():
    for n in range(2, 7):
        pi = pi_interval(64)
        for zeta in fan_angles(n, 64):
            assert 0 < zeta.lo and zeta.hi < pi.hi / 2
            assert sin_enclosure(zeta, 64).sign() == 1
            assert cos_enclosure(zeta, 64).sign() == 1


def test_base_angles_match_oracle():
    n = 2
    for r, beta in enumerate(base_angles(n, 64)):
        oracle = mp_fraction(mpmath.pi * r / (2 * n + 2))
        assert beta.lo <= oracle <= beta.hi


def test_sign_is_zero_on_straddle():
    assert Enclosure(Fraction(-1), Fraction(1)).sign() == 0
    assert Enclosure(Fraction(0), Fraction(1)).sign() == 0


def test_interval_arithmetic_orientation():
    a = Enclosure(Fraction(1), Fraction(2))
    b = Enclosure(Fraction(-3), Fraction(-1))
    assert (a - b).lo == 2 and (a - b).hi == 5
    assert (-b).lo == 1 and (-b).hi == 3
    assert a.scale(-2).lo == -4 and a.scale(-2).hi == -2
