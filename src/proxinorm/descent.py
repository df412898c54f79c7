"""Certified descent inside a coset of a finite-codimension subspace.

Given H as the joint kernel of finitely many independent, finitely
supported functionals and a point x outside H, the engine searches for a
direction v in H whose one-sided norm derivatives provably share a sign,
then line-searches a dyadic step h with a certified strict norm decrease.
Iterating yields a minimizing sequence that stays exactly in the coset
x + H; every emitted certificate can be re-derived from scratch.

The probe vectors feeding the linearity report are rational roundings of
the rotated-functional fan built from the first two defining functionals
(midpoint-angle sines/cosines), with the rounding denominator reduced
until every probe actually occurs in the reachable stream prefix; if the
fan cannot be made visible (or the codimension is 1), a deterministic
pool of low-height probes is used instead.  Any probe family with exact
nonzero pairings yields valid certificates; the fan choice merely follows
the sign-pattern mechanism that motivates the construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .approxlin import REPORT_DEPTH, LinearityReport, build_report, coherence_margin
from .bits import bits_for_target, floor_pow2
from .construction import ConstructionTable
from .demo import build_fan, fan_probes
from .errors import InputFormatError, PreconditionError, SearchBudgetError
from .gateaux import derivative_from_json, derivative_to_json, dminus_norm, dplus_norm
from .kernel import enclosures_match
from .linalg import kernel_directions, rank
from .norms import enclosure_at_depth, norm_depth, norm_enclosure
from .vectors import Enclosure, SparseVec, format_rational, pair, parse_rational, sup_norm

# Desk-scale search budgets (no mathematical content).
MAX_CANDIDATES = 200  # candidate supports scored per step
MAX_LINE_SEARCH = 200  # step halvings per line search
SIGN_GUARD_BITS = 4  # derivative enclosures refined to margin / 2^4


class Subspace:
    """Joint kernel of linearly independent finitely supported functionals."""

    def __init__(self, functionals: Sequence[SparseVec]):
        funcs = tuple(functionals)
        if not funcs:
            raise PreconditionError("a subspace needs at least one functional")
        if any(phi.is_zero() for phi in funcs):
            raise PreconditionError("defining functionals must be nonzero")
        if rank(funcs) != len(funcs):
            raise PreconditionError("defining functionals must be linearly independent")
        self.functionals = funcs

    @property
    def codimension(self) -> int:
        return len(self.functionals)

    def contains(self, v: SparseVec) -> bool:
        return all(pair(v, phi) == 0 for phi in self.functionals)

    def pairings(self, x: SparseVec) -> Tuple[Fraction, ...]:
        return tuple(pair(x, phi) for phi in self.functionals)

    def to_json(self) -> List[Dict[str, str]]:
        return [phi.to_json() for phi in self.functionals]

    @staticmethod
    def from_json(obj: object) -> "Subspace":
        if not isinstance(obj, list):
            raise InputFormatError("subspace must be a JSON array of functionals")
        return Subspace([SparseVec.from_json(phi) for phi in obj])


@dataclass(frozen=True)
class SignEvidence:
    """Definite, matching one-sided derivative signs along a direction.

    ``step_cap`` bounds the line-search step so that every coordinate the
    direction touches stays strictly below both its owning probe's pairing
    magnitude and the sup norm of the base point; since probe supports are
    disjoint from tag supports, the pairings are invariant along the
    descent and the cap keeps every usable index usable forever.
    """

    d_plus: Enclosure
    d_minus: Enclosure
    margin: Fraction
    step_cap: Fraction

    @property
    def shared_sign(self) -> int:
        return self.d_plus.sign()

    def __post_init__(self):
        if self.d_plus.sign() == 0:
            raise PreconditionError("d_plus enclosure does not determine a sign")
        if self.d_plus.sign() != self.d_minus.sign():
            raise PreconditionError("one-sided derivative signs disagree")
        if self.step_cap <= 0:
            raise PreconditionError("step cap must be positive")


@dataclass(frozen=True)
class DescentCertificate:
    """Machine-checkable witness that x is not a nearest point in x + H."""

    x: SparseVec
    v: SparseVec
    h: Fraction
    norm_before: Enclosure
    norm_after: Enclosure
    d_plus: Enclosure
    d_minus: Enclosure

    def __post_init__(self):
        if not self.norm_after.hi < self.norm_before.lo:
            raise PreconditionError("certificate does not show a strict decrease")

    def next_point(self) -> SparseVec:
        return self.x + self.v.scale(self.h)

    def to_json(self) -> Dict[str, object]:
        return {
            "x": self.x.to_json(),
            "v": self.v.to_json(),
            "h": format_rational(self.h),
            "norm_before": self.norm_before.to_json(),
            "norm_after": self.norm_after.to_json(),
            "d_plus": derivative_to_json(self.d_plus),
            "d_minus": derivative_to_json(self.d_minus),
        }

    @staticmethod
    def from_json(obj: object) -> "DescentCertificate":
        if not isinstance(obj, dict):
            raise InputFormatError("certificate must be a JSON object")
        try:
            return DescentCertificate(
                x=SparseVec.from_json(obj["x"]),
                v=SparseVec.from_json(obj["v"]),
                h=parse_rational(obj["h"]),
                norm_before=Enclosure.from_json(obj["norm_before"]),
                norm_after=Enclosure.from_json(obj["norm_after"]),
                d_plus=derivative_from_json(obj["d_plus"]),
                d_minus=derivative_from_json(obj["d_minus"]),
            )
        except KeyError as exc:
            raise InputFormatError(f"certificate missing field {exc.args[0]!r}") from exc


# -- probe construction -----------------------------------------------------


def build_probes(table: ConstructionTable, subspace: Subspace, x: SparseVec) -> List[SparseVec]:
    """Probe family for the linearity report at x: distinct, visible in the
    stream prefix, and pairing to exactly nonzero values with x.

    :func:`demo.fan_probes` of the rotated-functional fan of the first two
    functionals (at 64 bits; none for codimension 1), topped up from the
    pool over the functionals' support.
    """
    n = subspace.codimension + 1
    depth = REPORT_DEPTH
    s = sup_norm(x)

    def admissible(z: SparseVec, positions: List[int]) -> bool:
        # demand a usable occurrence: a tag whose coordinate of x clears
        # both the domination and sup-activity thresholds (none if <x, z> = 0)
        bound = min(abs(pair(x, z)), s)
        return any(abs(x[table.tag(k)]) < bound for k in positions)

    fan = ()
    if subspace.codimension >= 2:
        fan = build_fan(subspace.codimension, *subspace.functionals[:2], 64)
    pool_support = [i for phi in subspace.functionals for i in phi.support()]
    chosen = fan_probes(table, fan, n, depth, admissible, pool_support)
    if len(chosen) < n:
        raise SearchBudgetError(
            f"could not assemble {n} admissible probes within depth {depth}"
        )
    return chosen


# -- direction search ---------------------------------------------------------


def _candidate_supports(usable: Sequence[int], size: int, cap: int) -> Iterator[Tuple[int, ...]]:
    """Subsets of the usable indices: increasing max index, then lex."""
    produced = 0
    idx = sorted(usable)
    for pos in range(size - 1, len(idx)):
        top = idx[pos]
        for rest in combinations(idx[:pos], size - 1):
            yield rest + (top,)
            produced += 1
            if produced >= cap:
                return


def find_descent_direction(
    table: ConstructionTable, subspace: Subspace, x: SparseVec
) -> Optional[Tuple[SparseVec, SignEvidence, LinearityReport]]:
    """Search for v in H with certified matching one-sided derivative signs.

    Enumerates kernel directions over small usable-index supports and
    keeps the candidate with the largest exact coherence margin; a
    positive margin is then certified by derivative enclosures refined
    below it.  Returns None when the budgeted search finds no positive
    margin -- never a disproof of existence.

    Each distinct kernel direction is scored once per call: supports
    often share a direction (unit vectors, when the functionals vanish on
    the usable indices), and a repeat has the same margin, so under the
    strict ``>`` the first occurrence wins either way.  ``MAX_CANDIDATES``
    counts supports, not distinct directions.
    """
    if all(p == 0 for p in subspace.pairings(x)):
        raise PreconditionError("x lies in the subspace; the coset is trivial")
    probes = build_probes(table, subspace, x)
    report = build_report(table, x, probes, REPORT_DEPTH)
    size = subspace.codimension + 1
    if len(report.usable) < size:
        return None

    best: Optional[Tuple[Fraction, SparseVec]] = None
    scored = set()
    for support in _candidate_supports(report.usable, size, MAX_CANDIDATES):
        for v in kernel_directions(subspace.functionals, support):
            if v in scored:
                continue
            scored.add(v)
            margin = coherence_margin(report, v)
            if margin > 0 and (best is None or margin > best[0]):
                best = (margin, v)
    if best is None:
        return None
    margin, v = best

    # Usable indices satisfy |x_i| < |<x, z_j>| and |x_i| < sup_norm(x);
    # cap the step to keep both strict along the ray, so no tag is ever
    # excluded by later reports and descent can continue indefinitely.
    s = sup_norm(x)
    cap: Optional[Fraction] = None
    for i, vi in v.items():
        p = pair(x, report.probes[report.block[i]])
        room = min(abs(p), s) - abs(x[i])
        if room <= 0:
            raise RuntimeError(f"usable index {i} has no room below its thresholds")
        bound = room / (2 * abs(vi))
        cap = bound if cap is None or bound < cap else cap

    bits = bits_for_target(margin / (1 << SIGN_GUARD_BITS))
    evidence = SignEvidence(
        dplus_norm(table, x, v, bits), dminus_norm(table, x, v, bits), margin, cap
    )
    return v, evidence, report


def certify_descent(
    table: ConstructionTable,
    subspace: Subspace,
    x: SparseVec,
    v: SparseVec,
    evidence: SignEvidence,
    norm_x: Optional[Enclosure] = None,
) -> DescentCertificate:
    """Dyadic line search to a certified strict decrease along the ray.

    The step sign opposes the shared derivative sign; the step magnitude
    starts at 2^-4 times the norm scale over the direction's sup norm and
    halves until enclosures separate.  Enclosure widths track the
    predicted first-order decrease, so certification succeeds as soon as
    the step drops below the second-order kink scale.

    ``norm_x``, an enclosure of the norm of x (the previous certificate's
    ``norm_after`` along a chain), serves as the enclosure of x whenever a
    halving asks for its depth, so the series for x is not summed again;
    the enclosure of x from an earlier halving is reused the same way.
    """
    if not subspace.contains(v):
        raise PreconditionError("direction is not exactly inside the subspace")
    s = evidence.shared_sign
    # Certified lower bound on the decrease rate in the descending sense.
    rate = evidence.d_minus.lo if s > 0 else -evidence.d_plus.hi
    if rate <= 0:
        raise RuntimeError("sign evidence gives no positive decrease rate")
    before_scale = norm_enclosure(table, x, 8)  # width < 2^-8
    start = before_scale.lo / (16 * max(Fraction(1), sup_norm(v)))
    t = floor_pow2(min(start, evidence.step_cap))
    for _ in range(MAX_LINE_SEARCH):
        h = -s * t
        y = x + v.scale(h)
        bits = bits_for_target(t * rate / 8)
        depth = norm_depth(table, x, bits)
        if norm_x is None or norm_x.depth != depth:
            norm_x = enclosure_at_depth(table, x, depth)
        ey = norm_enclosure(table, y, bits)
        if ey.hi < norm_x.lo:
            return DescentCertificate(
                x=x,
                v=v,
                h=h,
                norm_before=norm_x,
                norm_after=ey,
                d_plus=evidence.d_plus,
                d_minus=evidence.d_minus,
            )
        t /= 2
    raise SearchBudgetError("line search exhausted without a certified decrease")


@dataclass
class DescentChain:
    """A minimizing run: consecutive certificates sharing one coset."""

    subspace: Subspace
    x0: SparseVec
    certificates: List[DescentCertificate] = field(default_factory=list)

    def iterates(self) -> List[SparseVec]:
        pts = [self.x0]
        for cert in self.certificates:
            pts.append(cert.next_point())
        return pts

    def iterate_enclosures(self) -> List[Enclosure]:
        """One enclosure per iterate, strictly decreasing by construction.

        The enclosure of an interior iterate intersects the certificate
        that produced it with the one that consumed it; both enclose the
        same exact norm value, and the intersection makes the chain
        comparisons hi(t+1) < lo(t) inherit from the per-certificate
        guarantees.
        """
        certs = self.certificates
        if not certs:
            return []
        out = [certs[0].norm_before]
        for prev, nxt in zip(certs, certs[1:]):
            lo = max(prev.norm_after.lo, nxt.norm_before.lo)
            hi = min(prev.norm_after.hi, nxt.norm_before.hi)
            out.append(Enclosure(lo, hi, max(prev.norm_after.depth, nxt.norm_before.depth)))
        out.append(certs[-1].norm_after)
        return out

    def to_json(self) -> Dict[str, object]:
        return {
            "subspace": self.subspace.to_json(),
            "x0": self.x0.to_json(),
            "certificates": [c.to_json() for c in self.certificates],
        }

    @staticmethod
    def from_json(obj: object) -> "DescentChain":
        if not isinstance(obj, dict):
            raise InputFormatError("chain must be a JSON object")
        try:
            certs = obj["certificates"]
            if not isinstance(certs, list):
                raise InputFormatError("certificates must be a JSON array")
            return DescentChain(
                subspace=Subspace.from_json(obj["subspace"]),
                x0=SparseVec.from_json(obj["x0"]),
                certificates=[DescentCertificate.from_json(c) for c in certs],
            )
        except KeyError as exc:
            raise InputFormatError(f"chain missing field {exc.args[0]!r}") from exc


def minimizing_sequence(
    table: ConstructionTable, subspace: Subspace, x0: SparseVec, steps: int
) -> DescentChain:
    """Iterate direction search and certified steps from x0.

    All iterates stay exactly in the coset x0 + H (rational arithmetic,
    directions in the kernel).  Stops early with the partial chain when
    the search budget trips.  Each certificate's ``norm_after`` is handed
    to the next line search, so consecutive certificates usually share
    one enclosure object.
    """
    if steps < 1:
        raise PreconditionError("steps must be >= 1")
    chain = DescentChain(subspace=subspace, x0=x0)
    x = x0
    norm_x: Optional[Enclosure] = None
    for _ in range(steps):
        try:
            found = find_descent_direction(table, subspace, x)
            if found is None:
                break
            v, evidence, _report = found
            cert = certify_descent(table, subspace, x, v, evidence, norm_x)
        except SearchBudgetError:
            break
        chain.certificates.append(cert)
        x = cert.next_point()
        norm_x = cert.norm_after
    return chain


# -- independent re-verification ----------------------------------------------


def verify_certificate(
    table: ConstructionTable, subspace: Subspace, cert: DescentCertificate
) -> List[str]:
    """Re-derive every certified quantity from scratch; list discrepancies.

    ``kernel`` re-derives the four enclosures at the depths stored in the
    certificate from its own enumeration of the construction stream (of
    ``table`` it reads only the depth budget), and each must match
    field-for-field (the pipeline is deterministic); the direction must
    lie exactly in the subspace, the derivative evidence must show
    matching definite signs, and the decrease must be strict.  Returns an
    empty list when the certificate is genuine.
    """
    problems: List[str] = []
    if not subspace.contains(cert.v):
        problems.append("v is not in the subspace")
    if not cert.norm_after.hi < cert.norm_before.lo:
        problems.append("no strict decrease between the stored enclosures")
    stored = (cert.norm_before, cert.norm_after, cert.d_plus, cert.d_minus)
    names = ("norm_before", "norm_after", "d_plus", "d_minus")
    for name, ok in zip(names, enclosures_match(table, cert.x, cert.v, cert.h, stored)):
        if not ok:
            problems.append(f"{name} does not recompute")
    if cert.d_plus.sign() == 0 or cert.d_plus.sign() != cert.d_minus.sign():
        problems.append("derivative evidence does not determine a shared sign")
    return problems


def verify_chain(table: ConstructionTable, chain: DescentChain) -> List[str]:
    """Verify every certificate and the coset/chaining structure."""
    problems: List[str] = []
    base = chain.subspace.pairings(chain.x0)
    x = chain.x0
    for t, cert in enumerate(chain.certificates):
        if cert.x != x:
            problems.append(f"step {t}: base point does not chain")
        for msg in verify_certificate(table, chain.subspace, cert):
            problems.append(f"step {t}: {msg}")
        x = cert.next_point()
        if chain.subspace.pairings(x) != base:
            problems.append(f"step {t}: iterate left the coset")
    encs = chain.iterate_enclosures()
    for t in range(len(encs) - 1):
        if not encs[t + 1].hi < encs[t].lo:
            problems.append(f"step {t}: iterate enclosures fail the strict chain")
    return problems
