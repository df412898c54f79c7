from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rref_determinant
from proxinorm import linalg
from proxinorm.errors import EliminationBudgetError
from proxinorm.linalg import feasible, int_determinant, kernel_directions, rank
from proxinorm.vectors import SparseVec, pair

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
functionals = st.dictionaries(st.integers(1, 5), rationals, max_size=4).map(SparseVec)


def brute_rank(constraints, support):
    """Independent rank oracle: naive elimination over dense rows."""
    cols = sorted(support)
    rows = [[phi[i] for i in cols] for phi in constraints]
    rank = 0
    for col in range(len(cols)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rref_kernel(constraints, support):
    """Independent kernel oracle: reduced row echelon form over Fraction,
    then each basis vector scaled to coprime integers with a positive
    leading entry."""
    cols = sorted(support)
    rows = [[phi[i] for i in cols] for phi in constraints]
    pivots = []  # (pivot column, row normalised to 1 there)
    for row in rows:
        for pcol, prow in pivots:
            row = [a - row[pcol] * b for a, b in zip(row, prow)]
        lead = next((j for j, v in enumerate(row) if v != 0), None)
        if lead is None:
            continue
        row = [v / row[lead] for v in row]
        pivots = [(pcol, [a - prow[lead] * b for a, b in zip(prow, row)]) for pcol, prow in pivots]
        pivots.append((lead, row))
    basis = []
    for f in range(len(cols)):
        if any(pcol == f for pcol, _ in pivots):
            continue
        v = {cols[f]: Fraction(1)}
        v.update((cols[pcol], -prow[f]) for pcol, prow in pivots if prow[f] != 0)
        den = lcm(*(x.denominator for x in v.values()))
        scale = Fraction(den, gcd(*(int(x * den) for x in v.values())))
        scale = -scale if v[min(v)] < 0 else scale
        basis.append(SparseVec({i: x * scale for i, x in v.items()}))
    return basis


def test_kernel_of_coordinate_functional():
    basis = kernel_directions([SparseVec.unit(1)], [1, 2])
    assert basis == [SparseVec.unit(2)]


def test_kernel_no_constraints():
    assert kernel_directions([], [3]) == [SparseVec.unit(3)]


def test_kernel_two_by_two():
    # e1*+e2* and e1*-e2* pin coordinates 1 and 2; only e3 survives.
    c1 = SparseVec({1: 1, 2: 1})
    c2 = SparseVec({1: 1, 2: -1})
    assert kernel_directions([c1, c2], [1, 2, 3]) == [SparseVec.unit(3)]


def test_kernel_empty_when_full_rank():
    assert kernel_directions([SparseVec.unit(1)], [1]) == []


@settings(max_examples=60)
@given(st.lists(functionals, max_size=3), st.sets(st.integers(1, 5), min_size=1, max_size=5))
def test_kernel_against_rank_oracle(constraints, support):
    basis = kernel_directions(constraints, sorted(support))
    for v in basis:
        assert set(v.support()) <= set(support)
        for phi in constraints:
            assert pair(v, phi) == 0
    assert len(basis) == len(support) - brute_rank(constraints, support)
    # basis vectors are independent: each has a private free coordinate
    assert brute_rank(basis, support) == len(basis)
    joint = {i for phi in constraints for i in phi.support()}
    assert rank(constraints) == brute_rank(constraints, joint)


def test_kernel_after_a_row_swap():
    """The first pivot sits in the second row, so elimination swaps rows;
    the free column still carries the pivot value, not its signed form."""
    constraints = [SparseVec.unit(2), SparseVec({1: 2, 3: 3})]
    expected = [SparseVec({1: 3, 3: -2})]
    assert rref_kernel(constraints, [1, 2, 3]) == expected
    assert kernel_directions(constraints, [1, 2, 3]) == expected


def test_kernel_basis_is_primitive():
    """Coprime integer entries with a positive leading entry."""
    phi = SparseVec({3: Fraction(2, 3), 7: 1})
    assert kernel_directions([phi], [3, 7]) == [SparseVec({3: 3, 7: -2})]


@settings(max_examples=300)
@given(st.lists(functionals, max_size=4), st.sets(st.integers(1, 5), max_size=5))
def test_kernel_matches_rref_oracle(constraints, support):
    assert kernel_directions(constraints, sorted(support)) == rref_kernel(constraints, support)


square_matrices = st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=200)
@given(square_matrices)
@example([])
@example([[0]])
@example([[-7]])
@example([[1, 2], [2, 4]])
@example([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
@example([[0, 1], [1, 0]])
def test_int_determinant_against_fraction_oracle(rows):
    assert int_determinant(rows) == rref_determinant(rows)


@pytest.mark.parametrize("index", ["2", True, 3.9, 2.0])
def test_kernel_support_indices_are_ints(index):
    """``int`` would read ``["2", True, 3.9]`` as columns 2, 1 and 3."""
    with pytest.raises(TypeError, match="not an index"):
        kernel_directions([SparseVec.unit(1)], [index])
    with pytest.raises(TypeError, match="not an index"):
        kernel_directions([SparseVec.unit(1)], [1, 3, index])


def test_kernel_support_indices_below_one_rejected():
    with pytest.raises(ValueError, match="index 0 is not a positive integer"):
        kernel_directions([SparseVec.unit(1)], [0, 1])


@pytest.mark.parametrize("rhs", ["1e3", 0.1, " 1_0 ", "1/2", None])
def test_linear_system_rhs_is_a_fraction_or_int(rhs):
    """``Fraction`` would read the strings as 1000, 10 and 1/2, and 0.1 as
    3602879701896397/2^55."""
    with pytest.raises(TypeError, match="not a rational value"):
        feasible([(SparseVec.unit(2), 1), (SparseVec.unit(1), rhs)])


@pytest.mark.parametrize("rhs", [True, False])
def test_linear_system_rhs_rejects_bools(rhs):
    """A row's bound ``True`` is no bound 1."""
    with pytest.raises(TypeError, match="not a rational value"):
        feasible([(SparseVec.unit(1), rhs)])


def test_feasible_empty_interval():
    ok, witness = feasible([(SparseVec({1: 1}), 1), (SparseVec({1: -1}), -2)])
    assert not ok and witness is None


def test_feasible_single_equality():
    # x1 = 0 as the pair x1 <= 0, -x1 <= 0
    ok, witness = feasible([(SparseVec({1: 1}), 0), (SparseVec({1: -1}), 0)])
    assert ok and witness[1] == 0


def test_feasible_interval_witness():
    # |c - (-1/8)| <= 1/16, i.e. c in [-3/16, -1/16]
    ok, witness = feasible([(SparseVec({1: 1}), Fraction(-1, 16)), (SparseVec({1: -1}), Fraction(3, 16))])
    assert ok
    assert Fraction(-3, 16) <= witness[1] <= Fraction(-1, 16)


@settings(max_examples=40)
@given(
    st.lists(functionals.filter(lambda f: not f.is_zero()), min_size=1, max_size=5),
    st.dictionaries(st.integers(1, 5), rationals, max_size=5).map(SparseVec),
    st.lists(st.sampled_from(["=", "<="]), min_size=5, max_size=5),
    st.lists(st.fractions(min_value=0, max_value=2, max_denominator=4), min_size=5, max_size=5),
)
def test_feasible_true_on_satisfiable_systems(rows, point, relations, slacks):
    """Systems built around a known solution must come back satisfiable."""
    sys_ = []
    for row, rel, slack in zip(rows, relations, slacks):
        rhs = pair(row, point)
        if rel == "=":  # as the pair row <= rhs, -row <= -rhs
            sys_.append((row, rhs))
            sys_.append((-row, -rhs))
        else:
            sys_.append((row, rhs + slack))
    ok, witness = feasible(sys_)
    assert ok
    # the witness check inside feasible() already asserts exact satisfaction
    assert witness is not None


@settings(max_examples=40)
@given(
    st.lists(functionals, max_size=3),
    functionals.filter(lambda f: not f.is_zero()),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)
def test_feasible_false_on_contradictions(rows, row, bound):
    sys_ = []
    for r in rows:
        sys_.append((r, Fraction(5)))
    sys_.append((row, bound))
    sys_.append((-row, -bound - 1))
    ok, witness = feasible(sys_)
    assert not ok and witness is None


def test_feasible_grid_agreement():
    """Exhaustive quarter-integer grid agreement on up to 3 variables."""
    grid = [Fraction(n, 4) for n in range(-8, 9)]
    # Each equality is written as the pair of rows c <= r, -c <= -r.
    systems = [
        [(SparseVec({1: 1, 2: 1}), Fraction(1)), (SparseVec({1: -1}), Fraction(0)),
         (SparseVec({2: -1}), Fraction(0))],
        [(SparseVec({1: 2, 2: -1}), Fraction(1, 2)), (SparseVec({1: -2, 2: 1}), Fraction(-1, 2)),
         (SparseVec({1: 1}), Fraction(1))],
        [(SparseVec({1: 1}), Fraction(-2)), (SparseVec({1: -1}), Fraction(-1))],
        [(SparseVec({1: 1, 2: 1, 3: 1}), Fraction(3, 4)),
         (SparseVec({1: -1, 2: -1, 3: -1}), Fraction(-3, 4)),
         (SparseVec({1: 1, 2: -1}), Fraction(-1, 2)),
         (SparseVec({3: -1}), Fraction(0))],
    ]
    for rows in systems:
        nvars = max(max(coeffs.support(), default=0) for coeffs, _ in rows)
        grid_hit = any(
            all(pair(c, SparseVec(dict(zip(range(1, nvars + 1), pt)))) <= r for c, r in rows)
            for pt in product(grid, repeat=nvars)
        )
        ok, _ = feasible(rows)
        if grid_hit:
            assert ok, f"grid found a point but feasible() said no: {rows}"


def plain_fourier_motzkin_witness(rows, variables):
    """Reference: textbook Fourier-Motzkin pairing every lower with every
    upper bound, highest variable first, midpoint back-substitution."""
    stages, current = [], [(dict(c.items()), r) for c, r in rows]
    for var in reversed(variables):
        stages.append((var, current))
        lower = [(l, r) for l, r in current if l.get(var, 0) < 0]
        upper = [(l, r) for l, r in current if l.get(var, 0) > 0]
        current = [(l, r) for l, r in current if not l.get(var)]
        for (ll, lr), (ul, ur) in product(lower, upper):
            a, b = -ll[var], ul[var]  # b * lower-row + a * upper-row drops var
            combo = {j: b * ll.get(j, 0) + a * ul.get(j, 0) for j in set(ll) | set(ul)}
            current.append(({j: w for j, w in combo.items() if w != 0}, b * lr + a * ur))
    if any(not l and r < 0 for l, r in current):
        return None
    witness = {}
    for var, constraints in reversed(stages):
        bounds = [
            ((r - sum(w * witness[j] for j, w in l.items() if j != var)) / l[var], l[var] > 0)
            for l, r in constraints
            if l.get(var)
        ]
        his = [b for b, is_upper in bounds if is_upper]
        los = [b for b, is_upper in bounds if not is_upper]
        lo, hi = max(los, default=None), min(his, default=None)
        if lo is not None and hi is not None:
            witness[var] = (lo + hi) / 2
        else:
            witness[var] = lo if lo is not None else hi if hi is not None else Fraction(0)
    return witness


small_functionals = st.dictionaries(st.integers(1, 3), rationals, min_size=1).map(SparseVec)


@settings(max_examples=60)
@given(
    st.lists(small_functionals.filter(lambda f: not f.is_zero()), max_size=3),
    st.lists(small_functionals.filter(lambda f: not f.is_zero()), max_size=3),
    st.dictionaries(st.integers(1, 3), rationals, max_size=3).map(SparseVec),
    st.lists(st.fractions(min_value=-1, max_value=2, max_denominator=4), min_size=3, max_size=3),
)
def test_feasible_matches_plain_fourier_motzkin(equalities, inequalities, point, slacks):
    """Eliminating through an equality pair leaves the decision and the witness
    unchanged.  Three variables keep the unbudgeted reference small."""
    sys_ = []
    for row in equalities:
        sys_.append((row, pair(row, point)))
        sys_.append((-row, -pair(row, point)))
    for row, slack in zip(inequalities, slacks):
        sys_.append((row, pair(row, point) + slack))
    ok, witness = feasible(sys_)
    expected = plain_fourier_motzkin_witness(sys_, sorted({i for c, _ in sys_ for i in c.support()}))
    assert ok == (expected is not None)
    assert witness == expected


def test_feasible_dense_equalities_within_budget():
    """Five dense equalities over five variables, each as two opposite rows:
    pairing every lower with every upper bound would need ~10^6 rows."""
    rows = [SparseVec({j: Fraction((7 * i + 3 * j) % 5 + 1, j) for j in range(1, 6)}) for i in range(5)]
    point = SparseVec({j: Fraction(j, 3) for j in range(1, 6)})
    sys_ = []
    for row in rows:
        sys_.append((row, pair(row, point)))
        sys_.append((-row, -pair(row, point)))
    ok, witness = feasible(sys_)
    assert ok and SparseVec(witness) == point  # the equalities are independent
    sys_.append((rows[0], pair(rows[0], point) - 1))
    ok, witness = feasible(sys_)
    assert not ok and witness is None


def test_elimination_budget_trips(monkeypatch):
    monkeypatch.setattr(linalg, "ELIMINATION_BUDGET", 1)
    sys_ = []
    # 3 lower and 3 upper bounds on x1 coupled through x2: eliminating x2
    # multiplies rows beyond a budget of 1.
    for i in range(3):
        sys_.append((SparseVec({1: 1, 2: 1}), Fraction(i)))
        sys_.append((SparseVec({1: -1, 2: -1}), Fraction(i)))
        sys_.append((SparseVec({2: 1}), Fraction(i)))
        sys_.append((SparseVec({2: -1}), Fraction(i)))
    with pytest.raises(EliminationBudgetError):
        feasible(sys_)
