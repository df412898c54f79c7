import ast
import inspect
from fractions import Fraction

import mpmath
import pytest

from proxinorm import demo
from proxinorm.approxlin import build_report, span_match_feasible
from proxinorm.demo import (
    DEFAULT_ANGLE_BITS,
    SignMatrix,
    build_fan,
    demo_points,
    demo_probes,
    independence_check,
    int_determinant,
    run_demo,
    sign_table,
    theta_blocks,
)
from proxinorm.errors import PrecisionBudgetError, PreconditionError
from proxinorm.trig import base_angles
from proxinorm.vectors import SparseVec, pair, sgn

mpmath.mp.dps = 60


def rational_rref_determinant(rows):
    """Independent oracle: determinant via exact rational row reduction."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(col + 1, len(m)):
            f = m[r][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def test_fan_midpoint_angles_n2():
    fan = build_fan(2, SparseVec.unit(1), SparseVec.unit(2), 64)
    for s, f in enumerate(fan, start=1):
        zeta = mpmath.pi * (2 * s - 1) / 12
        sin_oracle = Fraction(mpmath.nstr(mpmath.sin(zeta), 50, strip_zeros=False))
        cos_oracle = Fraction(mpmath.nstr(mpmath.cos(zeta), 50, strip_zeros=False))
        assert f.sin_coeff.lo < sin_oracle < f.sin_coeff.hi
        assert f.cos_coeff.lo < cos_oracle < f.cos_coeff.hi


def test_fan_coefficients_never_straddle_zero():
    for n in range(2, 7):
        for f in build_fan(n, SparseVec.unit(1), SparseVec.unit(2), 64):
            assert f.sin_coeff.sign() == 1
            assert f.cos_coeff.sign() == 1
            for i in (1, 2):
                assert f.coefficient_interval(i).sign() != 0


@pytest.mark.parametrize("n", range(2, 7))
def test_sign_table_matches_prediction(n):
    fan = build_fan(n, SparseVec.unit(1), SparseVec.unit(2))
    points = demo_points(n)
    predicted = SignMatrix.predicted(n)
    assert sign_table(points, fan) == [list(row) for row in predicted.rows]


def test_sign_table_invariant_under_positive_scaling():
    n = 2
    fan = build_fan(n, SparseVec.unit(1), SparseVec.unit(2))
    points = demo_points(n)
    scaled = [x.scale(Fraction(7, 3)) for x in points]
    assert sign_table(points, fan) == sign_table(scaled, fan)


def test_sign_table_raises_near_a_fan_kernel():
    """A fan's sign is read at the fan's own precision: a point within
    2^-60 of a 44-bit fan functional's kernel has no certified sign there."""
    e1, e2 = SparseVec.unit(1), SparseVec.unit(2)
    fine = build_fan(2, e1, e2, 96)[0]
    x = SparseVec({1: fine.cos_coeff.midpoint(), 2: fine.sin_coeff.midpoint()})
    assert abs(fine.pair_interval(x)).hi < Fraction(1, 1 << 60)
    fan = build_fan(2, e1, e2)
    assert fan[0].bits == DEFAULT_ANGLE_BITS == 44
    with pytest.raises(PrecisionBudgetError, match="sign undetermined at 44 bits"):
        sign_table([x], fan)


def test_independence_small_hand_values():
    m1 = SignMatrix(1, ((-1, 1), (-1, -1)))
    ok, det = independence_check(m1)
    assert ok and det == 2
    ok, det = independence_check(SignMatrix.predicted(2))
    assert ok and det == -4


@pytest.mark.parametrize("n", range(1, 9))
def test_determinant_magnitude_vs_row_reduction_oracle(n):
    matrix = SignMatrix.predicted(n)
    ok, det = independence_check(matrix)
    assert ok
    assert abs(det) == 2 ** n
    assert Fraction(det) == rational_rref_determinant(matrix.rows)


def test_theta_of_gamma_is_constant_per_block(table):
    points = demo_points(2)
    fan = build_fan(2, SparseVec.unit(1), SparseVec.unit(2))
    probes = demo_probes(table, points, fan, 500)
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
    probes = demo_probes(table, points, fan, 500)
    rep = build_report(table, points[0], probes, 500)
    blocks = theta_blocks(rep, SparseVec.zero())
    assert sum(map(len, blocks.values())) == len(rep.usable)
    assert all(v == 0 for vals in blocks.values() for v in vals)


def test_theta_of_feasibility_witness_within_eps(table):
    x = demo_points(2)[0]
    fan = build_fan(2, SparseVec.unit(1), SparseVec.unit(2))
    probes = demo_probes(table, demo_points(2), fan, 500)
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
    ladder = base_angles(2, DEFAULT_ANGLE_BITS)
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
