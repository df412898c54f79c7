"""Small exact linear algebra: kernel bases and linear feasibility.

Everything works over `fractions.Fraction`.  Feasibility is decided by
Gaussian elimination on the equality rows followed by Fourier-Motzkin
elimination on the inequalities; this is exact and complete, and the
constraint systems this package generates stay tiny (a handful of
variables), so the doubly-exponential worst case never bites.  A
configurable row-count budget guards against misuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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


@dataclass(frozen=True)
class ConstraintRow:
    """coeffs . vars  (relation)  rhs, with relation '=' or '<='."""

    coeffs: SparseVec
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in ("=", "<="):
            raise ValueError(f"relation must be '=' or '<=', got {self.relation!r}")


@dataclass
class LinearSystem:
    """Finitely many exact linear constraints over named integer variables."""

    rows: List[ConstraintRow] = field(default_factory=list)
    variables: Tuple[int, ...] = ()

    def add(self, coeffs: SparseVec, relation: str, rhs: Fraction | int) -> None:
        self.rows.append(ConstraintRow(coeffs, relation, Fraction(rhs)))

    def variable_set(self) -> Tuple[int, ...]:
        if self.variables:
            return tuple(sorted(set(self.variables)))
        seen = set()
        for row in self.rows:
            seen.update(row.coeffs.support())
        return tuple(sorted(seen))


def feasible(
    system: LinearSystem, budget: int = DEFAULT_ELIMINATION_BUDGET
) -> Tuple[bool, Optional[Dict[int, Fraction]]]:
    """Exact satisfiability of the system, with a witness when satisfiable.

    Equalities are removed by substitution first; the remaining
    inequalities go through Fourier-Motzkin elimination.  The witness is
    rebuilt by back-substitution, choosing the midpoint of each variable's
    final interval (0 for unbounded directions), so it is deterministic
    and satisfies every original constraint exactly.
    """
    variables = list(system.variable_set())

    # Normal form: list of ({var: coeff}, rhs) meaning sum <= rhs.
    ineqs: List[Tuple[Dict[int, Fraction], Fraction]] = []
    eqs: List[Tuple[Dict[int, Fraction], Fraction]] = []
    for row in system.rows:
        lhs = {i: v for i, v in row.coeffs.items()}
        if row.relation == "=":
            eqs.append((lhs, row.rhs))
        else:
            ineqs.append((lhs, row.rhs))

    # Solve equalities by Gaussian elimination; record substitutions.
    substitutions: List[Tuple[int, Dict[int, Fraction], Fraction]] = []

    def substitute(lhs, rhs):
        """The row with every solved variable replaced, zero terms dropped."""
        lhs = dict(lhs)
        for var, expr, const in substitutions:
            c = lhs.pop(var, None)
            if c:
                for j, w in expr.items():
                    lhs[j] = lhs.get(j, Fraction(0)) + c * w
                rhs = rhs - c * const
        return {i: v for i, v in lhs.items() if v != 0}, rhs

    for lhs, rhs in eqs:
        lhs, rhs = substitute(lhs, rhs)
        if not lhs:
            if rhs != 0:
                return False, None
            continue
        var = min(lhs)
        c = lhs.pop(var)
        # var = (rhs - sum lhs)/c
        expr = {j: -w / c for j, w in lhs.items()}
        const = rhs / c
        for k, (v2, e2, c2) in enumerate(substitutions):
            coef = e2.pop(var, None)
            if coef:
                for j, w in expr.items():
                    e2[j] = e2.get(j, Fraction(0)) + coef * w
                substitutions[k] = (v2, {j: w for j, w in e2.items() if w != 0}, c2 + coef * const)
        substitutions.append((var, expr, const))

    solved = {var for var, _, _ in substitutions}
    applied = [substitute(lhs, rhs) for lhs, rhs in ineqs]

    free_vars = [v for v in variables if v not in solved]

    # Fourier-Motzkin, eliminating the highest-numbered variable first.
    stages: List[Tuple[int, List[Tuple[Dict[int, Fraction], Fraction]]]] = []
    current = applied
    for var in sorted(free_vars, reverse=True):
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
        new = rest
        for llhs, lrhs in lower:
            for ulhs, urhs in upper:
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
    for var, expr, const in reversed(substitutions):
        value = const
        for j, w in expr.items():
            value += w * witness[j]
        witness[var] = value
    for v in variables:
        witness.setdefault(v, Fraction(0))

    assignment = SparseVec({v: witness[v] for v in variables if witness[v] != 0})
    for row in system.rows:
        lhs_val = pair(row.coeffs, assignment)
        if row.relation == "=" and lhs_val != row.rhs:
            raise RuntimeError("witness violates an equality")
        if row.relation == "<=" and lhs_val > row.rhs:
            raise RuntimeError("witness violates an inequality")
    return True, witness
