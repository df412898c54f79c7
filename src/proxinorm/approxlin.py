"""Approximate linearity of the norm derivative on tag-index sets.

Given a base point x and finitely many distinct probe vectors z_j with
exact nonzero pairings <x, z_j>, the derivative of the norm in directions
supported on the probes' tag indices is approximately the functional
gamma with gamma_i = -sgn(<x, z_j>) * 2^(-a_k^2) at i = a_k, up to a
relative error eps_i that decays like the weight ratio of consecutive
tags.  The report materializes a finite prefix of that structure:

* tag indices of each probe's occurrences up to a stream depth,
* the excluded indices (with reasons) that the derivative bound needs,
* gamma on the usable indices,
* certified lower and upper bounds for eps_i (the true value is an
  infinite series).

Each consumer picks the eps bound on the safe side of its inequality:
verification of the linearity bound uses the lower bound (so a reported
pass is rigorous), while sign conclusions use the upper bound (so a
reported sign guarantee is rigorous).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .bits import bits_for_target, dyadic_sign, dyadic_sum, scale_pow2, split_pow2
from .construction import ConstructionTable
from .errors import HypothesisError, InputFormatError, PreconditionError
from .gateaux import dplus_norm
from .linalg import LinearSystem, feasible
from .norms import DEFAULT_PRECISION_BITS
from .vectors import (
    Enclosure,
    SparseVec,
    format_rational,
    pair,
    parse_int,
    parse_rational,
    sgn,
    sup_norm,
)

REPORT_DEPTH = 500  # stream depth of the linearity report and of probe visibility
REASON_SUP_ACTIVE = "sup-active"
REASON_PROBE_SUPPORT = "probe-support"
REASON_DOMINATED = "probe-dominated"


@dataclass
class Trial:
    """One verification of the linearity bound in a direction v."""

    v: SparseVec
    lhs: Enclosure
    rhs: Fraction
    passed: bool

    def to_json(self) -> Dict[str, object]:
        return {
            "v": self.v.to_json(),
            "lhs": self.lhs.to_json(),
            "rhs": format_rational(self.rhs),
            "pass": self.passed,
        }


@dataclass
class LinearityReport:
    """Finite-prefix witness of approximate linearity around x."""

    x: SparseVec
    probes: List[SparseVec]
    depth: int
    index_position: Dict[int, int]  # tag index -> stream position k
    block: Dict[int, int]  # tag index -> probe number (0-based)
    usable: Tuple[int, ...]  # tag indices after exclusions, sorted
    excluded: Dict[int, List[str]]  # tag index -> exclusion reasons
    gamma: Dict[int, Fraction]
    eps_lo: Dict[int, Fraction]
    eps_hi: Dict[int, Fraction]
    trials: List[Trial] = field(default_factory=list)

    def gamma_vec(self) -> SparseVec:
        return SparseVec(self.gamma)

    def to_json(self) -> Dict[str, object]:
        return {
            "x": self.x.to_json(),
            "probes": [z.to_json() for z in self.probes],
            "depth": self.depth,
            "indices": {str(i): k for i, k in sorted(self.index_position.items())},
            "block": {str(i): j for i, j in sorted(self.block.items())},
            "usable": list(self.usable),
            "excluded": {str(i): r for i, r in sorted(self.excluded.items())},
            "gamma": {str(i): format_rational(g) for i, g in sorted(self.gamma.items())},
            "eps_lower": {str(i): format_rational(e) for i, e in sorted(self.eps_lo.items())},
            "eps_upper": {str(i): format_rational(e) for i, e in sorted(self.eps_hi.items())},
            "trials": [t.to_json() for t in self.trials],
        }

    @staticmethod
    def from_json(obj: object) -> "LinearityReport":
        if not isinstance(obj, dict):
            raise InputFormatError("report must be a JSON object")

        def field(name: str, kind: type):
            if not isinstance(obj[name], kind):
                raise InputFormatError(f"report {name} has the wrong JSON type")
            return obj[name]

        def keyed(name: str, parse_value) -> dict:
            items = field(name, dict).items()
            return {parse_int(i, f"report {name} key", key=True): parse_value(v) for i, v in items}

        def reasons(value: object) -> List[str]:
            if not isinstance(value, list) or not all(isinstance(r, str) for r in value):
                raise InputFormatError(f"exclusion reasons must be a list of strings, got {value!r}")
            return value

        try:
            return LinearityReport(
                x=SparseVec.from_json(obj["x"]),
                probes=[SparseVec.from_json(z) for z in field("probes", list)],
                depth=parse_int(obj["depth"], "report depth"),
                index_position=keyed("indices", lambda k: parse_int(k, "report position")),
                block=keyed("block", lambda j: parse_int(j, "report probe number")),
                usable=tuple(parse_int(i, "report usable index") for i in field("usable", list)),
                excluded=keyed("excluded", reasons),
                gamma=keyed("gamma", parse_rational),
                eps_lo=keyed("eps_lower", parse_rational),
                eps_hi=keyed("eps_upper", parse_rational),
            )
        except KeyError as exc:
            raise InputFormatError(f"report missing field {exc.args[0]!r}") from exc


def build_report(
    table: ConstructionTable,
    x: SparseVec,
    probes: Sequence[SparseVec],
    depth: int,
) -> LinearityReport:
    """Materialize the approximate-linearity structure up to a stream depth.

    Requires depth >= 1, exact nonzero pairings <x, z_j> and pairwise
    distinct probes.
    Exclusions (with reasons) follow the derivative-bound bookkeeping:
    indices where |x_i| attains the sup norm, indices inside any probe's
    support, and occurrence tags dominated by the coordinate of x there
    (|x_{a_k}| >= |<x, z_j>| for the probe listed at position k).
    """
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    if not probes:
        raise PreconditionError("at least one probe vector is required")
    if len(set(probes)) != len(probes):
        raise PreconditionError("probe vectors must be pairwise distinct")
    pairings: List[Fraction] = []
    for j, z in enumerate(probes):
        p = pair(x, z)
        if p == 0:
            raise HypothesisError(f"probe {j} pairs to zero with the base point")
        pairings.append(p)

    smax = sup_norm(x)
    sup_active = {i for i, v in x.items() if abs(v) == smax}
    probe_support = set()
    for z in probes:
        probe_support.update(z.support())

    index_position: Dict[int, int] = {}
    block: Dict[int, int] = {}
    excluded: Dict[int, List[str]] = {}
    usable: List[int] = []
    gamma: Dict[int, Fraction] = {}
    eps_lo: Dict[int, Fraction] = {}
    eps_hi: Dict[int, Fraction] = {}

    for j, z in enumerate(probes):
        for k in table.occurrence_positions(z, depth):
            i = table.tag(k)
            index_position[i] = k
            block[i] = j
            reasons = []
            if i in sup_active:
                reasons.append(REASON_SUP_ACTIVE)
            if i in probe_support:
                reasons.append(REASON_PROBE_SUPPORT)
            if abs(x[i]) >= abs(pairings[j]):
                reasons.append(REASON_DOMINATED)
            if reasons:
                excluded[i] = reasons
                continue
            usable.append(i)
            gamma[i] = Fraction(-sgn(pairings[j]), 1 << i * i)
            # eps = tail bound / 2^(-i^2), with i = a_k.
            lo, hi = table.weight_tail_bound(k)
            eps_lo[i] = scale_pow2(lo, i * i)
            eps_hi[i] = scale_pow2(hi, i * i)

    return LinearityReport(
        x=x,
        probes=list(probes),
        depth=depth,
        index_position=index_position,
        block=block,
        usable=tuple(sorted(usable)),
        excluded=excluded,
        gamma=gamma,
        eps_lo=eps_lo,
        eps_hi=eps_hi,
    )


def _check_direction(report: LinearityReport, v: SparseVec) -> None:
    outside = set(v.support()) - set(report.usable)
    if outside:
        raise PreconditionError(
            f"direction supported outside the usable indices: {sorted(outside)}"
        )


_Term = Tuple[int, int, int]


def _terms(
    report: LinearityReport, v: SparseVec, eps: Dict[int, Fraction]
) -> Tuple[List[_Term], List[_Term]]:
    """:func:`~proxinorm.bits.dyadic_sum` terms of <v, gamma> and of
    sum eps_i |v_i gamma_i|.

    Every denominator is split into its odd part and a power of two, so
    gamma and eps need not be dyadic (reports read back with ``from_json``).
    """
    pairing: List[_Term] = []
    budget: List[_Term] = []
    for i, vi in v.items():
        g, e = report.gamma[i], eps[i]
        n = vi.numerator * g.numerator
        q, s = split_pow2(vi.denominator * g.denominator)
        qe, se = split_pow2(e.denominator)
        pairing.append((n, q, s))
        budget.append((abs(n) * e.numerator, q * qe, s + se))
    return pairing, budget


def verify_linearity_bound(
    table: ConstructionTable,
    x: SparseVec,
    report: LinearityReport,
    v: SparseVec,
) -> Tuple[Enclosure, Fraction, bool]:
    """Certify |d_plus(x; v) - <v, gamma>| <= sum eps_i |v_i gamma_i|.

    The right side uses the certified lower eps bound, so a pass is a
    rigorous verification of the bound with the true error sequence.  The
    derivative enclosure is refined well below the right side when
    possible, so slack is not lost to truncation.
    """
    _check_direction(report, v)
    pairing, budget = _terms(report, v, report.eps_lo)
    rhs = dyadic_sum(budget)
    gv = dyadic_sum(pairing)
    precision_bits = DEFAULT_PRECISION_BITS
    if rhs > 0:
        precision_bits = max(precision_bits, bits_for_target(rhs / 16))
    lhs = abs(dplus_norm(table, x, v, precision_bits) - Enclosure.point(gv))
    passed = lhs.hi <= rhs
    report.trials.append(Trial(v, lhs, rhs, passed))
    return lhs, rhs, passed


def coherence_margin(report: LinearityReport, v: SparseVec) -> Fraction:
    """|<v, gamma>| - sum eps_hi_i |v_i gamma_i|, exact (upper eps bound).

    When positive, both one-sided derivatives of the norm at x along v are
    nonzero with the sign of <v, gamma>.
    """
    _check_direction(report, v)
    pairing, budget = _terms(report, v, report.eps_hi)
    s = dyadic_sign(pairing)
    return dyadic_sum([(s * n, q, e) for n, q, e in pairing] + [(-n, q, e) for n, q, e in budget])


def span_match_feasible(
    report: LinearityReport,
    functionals: Sequence[SparseVec],
    indices: Sequence[int],
) -> Tuple[bool, Optional[SparseVec]]:
    """Decide whether some combination of the functionals matches gamma.

    Constraints: |<e_i, phi> - gamma_i| <= eps_i |gamma_i| for every i in
    the given subset of the usable indices, phi ranging over the span of
    the functionals.  Returns (satisfiable, coefficient vector) where the
    coefficient vector assigns a rational weight to each functional
    (1-based).  Uses the upper eps bound, matching the sign analysis.
    """
    if any(not isinstance(i, int) or isinstance(i, bool) for i in indices):
        raise PreconditionError(f"indices must be integers, got {list(indices)}")
    idx = sorted(set(indices))
    outside = [i for i in idx if i not in report.gamma]
    if outside:
        raise PreconditionError(f"indices outside the usable prefix: {outside}")
    system = LinearSystem()
    for i in idx:
        coeffs = SparseVec({t + 1: phi[i] for t, phi in enumerate(functionals)})
        bound = report.eps_hi[i] * abs(report.gamma[i])
        system.add(coeffs, report.gamma[i] + bound)
        system.add(-coeffs, bound - report.gamma[i])
    ok, witness = feasible(system)
    if not ok:
        return False, None
    return True, SparseVec({t: c for t, c in witness.items() if c != 0})
