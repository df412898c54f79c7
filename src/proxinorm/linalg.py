"""Small exact linear algebra: kernel bases, rank, determinants and linear
feasibility.

One fraction-free elimination over integer rows gives primitive integer
kernel bases, ranks and determinants.  Feasibility of a system of
inequalities is decided by Fourier-Motzkin elimination; this is exact and
complete, and the constraint systems this package generates stay tiny (a
handful of variables), so the doubly-exponential worst case never bites.
A fixed row-count budget, ``ELIMINATION_BUDGET``, guards against misuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import EliminationBudgetError, PreconditionError
from .vectors import RationalLike, SparseVec, _as_fraction, _as_index, pair

ELIMINATION_BUDGET = 10_000


def _row_reduce(rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int], int, int]:
    """Fraction-free Gauss-Jordan (Bareiss) elimination of integer rows.

    Returns (reduced rows, pivot columns, p, s).  Row r < len(pivots)
    holds p at pivots[r] and 0 at every other pivot column; p is the minor
    of the pivot rows and columns (1 when there is no pivot) and s the sign
    of the row swaps.  Every division is exact.
    """
    m = [list(row) for row in rows]
    pivots: List[int] = []
    prev, sign = 1, 1
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        p, prow = m[r][col], m[r]
        for i, row in enumerate(m):
            if i != r:
                f = row[col]
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
        pivots.append(col)
        prev = p
    return m, pivots, prev, sign


def _reduce_functionals(functionals: Sequence[SparseVec], cols: Sequence[int]):
    """:func:`_row_reduce` of the functionals on cols, denominators cleared."""
    col_of = {c: j for j, c in enumerate(cols)}
    rows = []
    for phi in functionals:
        entries = [(col_of[i], v) for i, v in phi.items() if i in col_of]
        den = lcm(*(v.denominator for _, v in entries))
        row = [0] * len(cols)
        for j, v in entries:
            row[j] = v.numerator * (den // v.denominator)
        rows.append(row)
    return _row_reduce(rows)


def kernel_directions(
    constraints: Sequence[SparseVec], allowed_support: Sequence[int]
) -> List[SparseVec]:
    """Basis of {v : supp v within allowed_support, <v, phi> = 0 for all phi}.

    One vector per free column of the fraction-free elimination, in
    increasing index order: p at the free column and -row[f] at each pivot,
    divided by their gcd with the leading entry made positive.  So each
    vector is primitive, and the basis is deterministic.  Returns [] when
    only the zero solution exists.
    """
    cols = sorted(set(map(_as_index, allowed_support)))
    m, pivots, p, _ = _reduce_functionals(constraints, cols)
    basis: List[SparseVec] = []
    for f in (j for j in range(len(cols)) if j not in pivots):
        entries = {cols[f]: p}
        entries.update((cols[c], -row[f]) for c, row in zip(pivots, m) if row[f])
        g = gcd(*entries.values())
        g = -g if entries[min(entries)] < 0 else g
        basis.append(SparseVec({i: v // g for i, v in entries.items()}))
    return basis


def rank(functionals: Sequence[SparseVec]) -> int:
    """Rank of the functionals over their joint support."""
    support = sorted({i for phi in functionals for i in phi.support()})
    return len(_reduce_functionals(functionals, support)[1])


def int_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    if any(len(row) != len(rows) for row in rows):
        raise PreconditionError("determinant needs a square matrix")
    _, pivots, p, sign = _row_reduce(rows)
    return sign * p if len(pivots) == len(rows) else 0


@dataclass
class LinearSystem:
    """Finitely many exact constraints coeffs . vars <= rhs over numbered variables."""

    rows: List[Tuple[SparseVec, Fraction]] = field(default_factory=list)

    def add(self, coeffs: SparseVec, rhs: RationalLike) -> None:
        self.rows.append((coeffs, _as_fraction(rhs)))

    def variable_set(self) -> Tuple[int, ...]:
        seen = set()
        for coeffs, _ in self.rows:
            seen.update(coeffs.support())
        return tuple(sorted(seen))


def feasible(system: LinearSystem) -> Tuple[bool, Optional[Dict[int, Fraction]]]:
    """Exact satisfiability of the system, with a witness when satisfiable.

    Fourier-Motzkin elimination decides it; a variable pinned by two
    opposite rows is eliminated through that equality.  The witness is
    rebuilt by back-substitution through the elimination stages, choosing
    the midpoint of each variable's final interval (0 for unbounded
    directions), so it is deterministic and satisfies every constraint
    exactly.
    """
    variables = list(system.variable_set())

    # Fourier-Motzkin, eliminating the highest-numbered variable first.
    stages: List[Tuple[int, List[Tuple[Dict[int, Fraction], Fraction]]]] = []
    current = [(dict(coeffs.items()), rhs) for coeffs, rhs in system.rows]  # sum <= rhs
    for var in reversed(variables):
        stages.append((var, current))
        lower: List[Tuple[Dict[int, Fraction], Fraction]] = []  # var >= expr
        upper: List[Tuple[Dict[int, Fraction], Fraction]] = []  # var <= expr
        rest: List[Tuple[Dict[int, Fraction], Fraction]] = []
        for lhs, rhs in current:
            c = lhs.get(var)
            if not c:
                rest.append((lhs, rhs))
                continue
            expr = {j: -w / c for j, w in lhs.items() if j != var}
            bound = rhs / c
            if c > 0:
                upper.append((expr, bound))
            else:
                lower.append((expr, bound))
        # A lower and an upper bound that coincide pin var = expr.  Eliminate
        # var through that equality alone: every other bound is paired only
        # with it, so an equality written as two rows costs no quadratic
        # growth.  The projection, and hence the witness, is the same.
        upper_keys = {(frozenset(expr.items()), bound) for expr, bound in upper}
        pinned = next(
            (row for row in lower if (frozenset(row[0].items()), row[1]) in upper_keys), None
        )
        if pinned is None:
            pairs = product(lower, upper)
        else:
            pairs = [(pinned, up) for up in upper] + [(low, pinned) for low in lower]
        new = rest
        for (llhs, lrhs), (ulhs, urhs) in pairs:
            # lower bound <= upper bound
            combo = dict(llhs)
            for j, w in ulhs.items():
                combo[j] = combo.get(j, Fraction(0)) - w
            combo = {j: w for j, w in combo.items() if w != 0}
            new.append((combo, urhs - lrhs))
        if len(new) > ELIMINATION_BUDGET:
            raise EliminationBudgetError(
                f"elimination produced {len(new)} rows (budget {ELIMINATION_BUDGET})"
            )
        current = new

    for lhs, rhs in current:
        if not lhs and rhs < 0:
            return False, None

    # Back-substitute a witness through the elimination stages.
    witness: Dict[int, Fraction] = {}
    for var, constraints in reversed(stages):
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for lhs, rhs in constraints:
            c = lhs.get(var)
            if not c:
                continue
            value = rhs
            for j, w in lhs.items():
                if j != var:
                    value -= w * witness[j]
            bound = value / c
            if c > 0:
                hi = bound if hi is None or bound < hi else hi
            else:
                lo = bound if lo is None or bound > lo else lo
        if lo is not None and hi is not None:
            witness[var] = (lo + hi) / 2
        elif lo is not None:
            witness[var] = lo
        elif hi is not None:
            witness[var] = hi
        else:
            witness[var] = Fraction(0)

    assignment = SparseVec({v: witness[v] for v in variables if witness[v] != 0})
    for coeffs, rhs in system.rows:
        if pair(coeffs, assignment) > rhs:
            raise RuntimeError("witness violates an inequality")
    return True, witness
