import ast
import inspect
from fractions import Fraction

import mpmath
import pytest

from conftest import rref_determinant
from proxinorm import demo
from proxinorm.approxlin import build_report, span_match_feasible
from proxinorm.demo import (
    _predicted_rows,
    build_fan,
    demo_points,
    demo_probes,
    int_determinant,
    run_demo,
    sign_table,
    theta_blocks,
)
from proxinorm.errors import PrecisionBudgetError, PreconditionError
from proxinorm.trig import ANGLE_BITS, base_angles
from proxinorm.vectors import SparseVec, pair, sgn

mpmath.mp.dps = 60


def mp_fraction(x) -> Fraction:
    """High-precision oracle value as an exact rational (50 digits)."""
    return Fraction(mpmath.nstr(x, 50, strip_zeros=False))


def test_fan_midpoint_angles_n2():
    fan = build_fan(2, SparseVec.unit(1), SparseVec.unit(2))
    for s, f in enumerate(fan, start=1):
        zeta = mpmath.pi * (2 * s - 1) / 12
        assert f.sin_coeff.lo < mp_fraction(mpmath.sin(zeta)) < f.sin_coeff.hi
        assert f.cos_coeff.lo < mp_fraction(mpmath.cos(zeta)) < f.cos_coeff.hi


def test_fan_coefficients_never_straddle_zero():
    for n in range(2, 7):
        for f in build_fan(n, SparseVec.unit(1), SparseVec.unit(2)):
            assert f.sin_coeff.sign() == 1
            assert f.cos_coeff.sign() == 1
            for i in (1, 2):
                assert f.coefficient_interval(i).sign() != 0


@pytest.mark.parametrize("n", range(2, 7))
def test_sign_table_matches_prediction(n):
    fan = build_fan(n, SparseVec.unit(1), SparseVec.unit(2))
    points = demo_points(n)
    assert sign_table(points, fan) == _predicted_rows(n)


def test_sign_table_invariant_under_positive_scaling():
    n = 2
    fan = build_fan(n, SparseVec.unit(1), SparseVec.unit(2))
    points = demo_points(n)
    scaled = [x.scale(Fraction(7, 3)) for x in points]
    assert sign_table(points, fan) == sign_table(scaled, fan)


def test_sign_table_raises_near_a_fan_kernel():
    """A fan's sign is read at ANGLE_BITS: a point within 2^-60 of a fan
    functional's kernel has no certified sign there."""
    zeta = mpmath.pi / 12  # the first midpoint angle at n = 2
    c, s = mp_fraction(mpmath.cos(zeta)), mp_fraction(mpmath.sin(zeta))
    x = SparseVec({1: c, 2: s})
    # <x, psi_1> = sin(zeta) c - cos(zeta) s, which is 0 at the exact (c, s)
    assert abs(mpmath.sin(zeta) * c.numerator / c.denominator
               - mpmath.cos(zeta) * s.numerator / s.denominator) < mpmath.mpf(2) ** -60
    fan = build_fan(2, SparseVec.unit(1), SparseVec.unit(2))
    assert ANGLE_BITS == 44
    with pytest.raises(PrecisionBudgetError, match="sign undetermined at 44 bits"):
        sign_table([x], fan)


def test_independence_small_hand_values():
    assert int_determinant([[-1, 1], [-1, -1]]) == 2
    assert _predicted_rows(2) == [[-1, 1, 1], [-1, -1, 1], [-1, -1, -1]]
    assert int_determinant(_predicted_rows(2)) == -4


@pytest.mark.parametrize("n", range(1, 9))
def test_determinant_magnitude_vs_row_reduction_oracle(n):
    rows = _predicted_rows(n)
    det = int_determinant(rows)
    assert abs(det) == 2 ** n
    assert Fraction(det) == rref_determinant(rows)


def test_theta_of_gamma_is_constant_per_block(table):
    points = demo_points(2)
    fan = build_fan(2, SparseVec.unit(1), SparseVec.unit(2))
    probes = demo_probes(table, points, fan)
    for x in points:
        rep = build_report(table, x, probes, 500)
        blocks = theta_blocks(rep, rep.gamma_vec())
        assert blocks
        for j, values in blocks.items():
            expected = Fraction(-sgn(pair(x, probes[j])))
            assert all(v == expected for v in values)


def test_theta_of_zero_functional(table):
    points = demo_points(2)
    fan = build_fan(2, SparseVec.unit(1), SparseVec.unit(2))
    probes = demo_probes(table, points, fan)
    rep = build_report(table, points[0], probes, 500)
    blocks = theta_blocks(rep, SparseVec.zero())
    assert sum(map(len, blocks.values())) == len(rep.usable)
    assert all(v == 0 for vals in blocks.values() for v in vals)


def test_theta_of_feasibility_witness_within_eps(table):
    x = demo_points(2)[0]
    fan = build_fan(2, SparseVec.unit(1), SparseVec.unit(2))
    probes = demo_probes(table, demo_points(2), fan)
    rep = build_report(table, x, probes, 500)
    gvec = rep.gamma_vec()
    ok, coeffs = span_match_feasible(rep, [gvec], rep.usable)
    assert ok
    phi = gvec.scale(coeffs[1])
    for j, vals in theta_blocks(rep, phi).items():
        center = Fraction(-sgn(pair(x, probes[j])))
        owned = [i for i in rep.usable if rep.block[i] == j]
        for i, val in zip(owned, vals):
            assert abs(val - center) <= rep.eps_hi[i]


def test_run_demo_narrative(table):
    out = run_demo(table, 2)
    assert out["determinant"] == -4
    assert out["independent"] is True
    assert out["psi_matches_prediction"] is True
    assert out["z_matches_prediction"] is True
    assert all(entry["constant_per_block"] for entry in out["theta"])
    assert len(out["points"]) == 3 and len(out["probes"]) == 3
    ladder = base_angles(2)
    assert len(ladder) == 4  # r = 0..n+1
    assert all(t.width() < Fraction(1, 1 << 40) for t in ladder)
    # the ladder runs from 0 up to a quarter turn
    assert ladder[0].lo == 0 and ladder[0].hi == 0
    assert 0 < ladder[-1].lo and ladder[-1].hi < 2


def test_determinant_rejects_non_square():
    with pytest.raises(PreconditionError):
        int_determinant([[1, 2], [3]])


def test_demo_imports_nothing_from_descent():
    """The fan and its probe builder live here; descent builds on them."""
    tree = ast.parse(inspect.getsource(demo))
    imported = {"." * node.level + (node.module or "")
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not imported & {".descent", "proxinorm.descent"}
