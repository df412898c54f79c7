"""Small exact linear algebra: kernel bases and linear feasibility.

Everything works over `fractions.Fraction`.  Feasibility of a system of
inequalities is decided by Fourier-Motzkin elimination; this is exact and
complete, and the constraint systems this package generates stay tiny (a
handful of variables), so the doubly-exponential worst case never bites.
A configurable row-count budget guards against misuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import EliminationBudgetError
from .vectors import SparseVec, pair

DEFAULT_ELIMINATION_BUDGET = 10_000


def kernel_directions(
    constraints: Sequence[SparseVec], allowed_support: Sequence[int]
) -> List[SparseVec]:
    """Basis of {v : supp v within allowed_support, <v, phi> = 0 for all phi}.

    Exact reduced row echelon form over the rationals; free columns (in
    increasing index order) generate the basis, so the output is
    deterministic.  Returns [] when only the zero solution exists.
    """
    cols = sorted(set(int(i) for i in allowed_support))
    if not cols:
        return []
    ncols = len(cols)
    col_of = {c: j for j, c in enumerate(cols)}
    rows: List[List[Fraction]] = []
    for phi in constraints:
        row = [Fraction(0)] * ncols
        nonzero = False
        for i, v in phi.items():
            j = col_of.get(i)
            if j is not None:
                row[j] = v
                nonzero = True
        if nonzero:
            rows.append(row)

    pivots: List[Tuple[int, List[Fraction]]] = []  # (pivot column, normalized row)
    for row in rows:
        for pcol, prow in pivots:
            if row[pcol] != 0:
                f = row[pcol]
                for j in range(ncols):
                    row[j] -= f * prow[j]
        lead = next((j for j in range(ncols) if row[j] != 0), None)
        if lead is None:
            continue
        inv = 1 / row[lead]
        row = [v * inv for v in row]
        for pcol, prow in pivots:
            if prow[lead] != 0:
                f = prow[lead]
                for j in range(ncols):
                    prow[j] -= f * row[j]
        pivots.append((lead, row))
    pivots.sort(key=lambda t: t[0])

    pivot_cols = [pcol for pcol, _ in pivots]
    free_cols = [j for j in range(ncols) if j not in pivot_cols]
    basis: List[SparseVec] = []
    for fcol in free_cols:
        entries: Dict[int, Fraction] = {cols[fcol]: Fraction(1)}
        for pcol, prow in pivots:
            if prow[fcol] != 0:
                entries[cols[pcol]] = -prow[fcol]
        basis.append(SparseVec(entries))
    return basis


@dataclass
class LinearSystem:
    """Finitely many exact constraints coeffs . vars <= rhs over numbered variables."""

    rows: List[Tuple[SparseVec, Fraction]] = field(default_factory=list)
    variables: Tuple[int, ...] = ()

    def add(self, coeffs: SparseVec, rhs: Fraction | int) -> None:
        self.rows.append((coeffs, Fraction(rhs)))

    def variable_set(self) -> Tuple[int, ...]:
        if self.variables:
            return tuple(sorted(set(self.variables)))
        seen = set()
        for coeffs, _ in self.rows:
            seen.update(coeffs.support())
        return tuple(sorted(seen))


def feasible(
    system: LinearSystem, budget: int = DEFAULT_ELIMINATION_BUDGET
) -> Tuple[bool, Optional[Dict[int, Fraction]]]:
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
        if len(new) > budget:
            raise EliminationBudgetError(
                f"elimination produced {len(new)} rows (budget {budget})"
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
