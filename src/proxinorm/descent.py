"""Certified descent inside a coset of a finite-codimension subspace.

Given H as the joint kernel of finitely many independent, finitely
supported functionals and a point x outside H, the engine searches for a
direction v in H whose one-sided norm derivatives provably share a sign,
then line-searches a dyadic step h with a certified strict norm decrease.
Stepping along that one ray, with the search run once at the start,
yields a minimizing sequence that stays exactly in the coset x + H;
every emitted certificate can be re-derived from scratch.

The probe vectors feeding the linearity report, picked once per chain
at its start, are rational roundings of the rotated-functional fan built
from the first two defining functionals (midpoint-angle sines/cosines),
with the rounding denominator reduced until every probe occurs in the
reachable stream prefix; if the fan cannot be made visible (or the
codimension is 1), a deterministic pool of low-height probes is used.
Any probe family with exact nonzero pairings yields valid certificates;
the fan merely follows the sign-pattern mechanism of the construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import kernel
from .approxlin import REPORT_DEPTH, LinearityReport, _margin_parts, build_report
from .construction import ConstructionTable
from .demo import build_fan, fan_probes
from .errors import InputFormatError, PreconditionError, SearchBudgetError
from .gateaux import derivative_from_json, derivative_to_json, dminus_norm, dplus_norm
from .linalg import kernel_directions, rank
from .norms import enclosure_at_depth, norm_depth, norm_enclosure
from .vectors import (
    Enclosure,
    SparseVec,
    _parts_less,
    bits_for_target,
    dyadic_sum,
    floor_pow2,
    format_rational,
    pair,
    parse_rational,
    sup_norm,
)

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
        if not self.norm_after.below(self.norm_before):
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
        return DescentCertificate._read(obj, _shared_decoder())

    @staticmethod
    def _read(obj: object, decode: "_Decode") -> "DescentCertificate":
        if not isinstance(obj, dict):
            raise InputFormatError("certificate must be a JSON object")
        try:
            return DescentCertificate(
                x=decode(SparseVec.from_json, obj["x"]),
                v=decode(SparseVec.from_json, obj["v"]),
                h=parse_rational(obj["h"]),
                norm_before=decode(Enclosure.from_json, obj["norm_before"]),
                norm_after=decode(Enclosure.from_json, obj["norm_after"]),
                d_plus=decode(derivative_from_json, obj["d_plus"]),
                d_minus=decode(derivative_from_json, obj["d_minus"]),
            )
        except KeyError as exc:
            raise InputFormatError(f"certificate missing field {exc.args[0]!r}") from exc


#: decode(read, obj): read(obj), or the value an earlier read of equal JSON gave.
_Decode = Callable[[Callable[[object], Any], object], Any]


def _shared_decoder() -> _Decode:
    """A decode that reads each distinct flat JSON object once: an object
    whose values are all strings or ints (not bools) is keyed by the read
    and its items in order, so equal JSON gives the first read's object.
    Any other value is read every time.  A read that raises stores
    nothing, so errors and their order are those of reading everything."""
    memo: Dict[object, object] = {}

    def decode(read: Callable[[object], Any], obj: object) -> Any:
        if type(obj) is not dict or not all(type(v) is str or type(v) is int for v in obj.values()):
            return read(obj)
        key = (read, *obj.items())
        value = memo.get(key)
        if value is None:
            value = memo[key] = read(obj)
        return value

    return decode


# -- probe construction -----------------------------------------------------


def build_probes(table: ConstructionTable, subspace: Subspace, x: SparseVec) -> List[SparseVec]:
    """Probe family for the linearity report at x: distinct, visible in the
    stream prefix, and pairing to exactly nonzero values with x.

    :func:`demo.fan_probes` of the rotated-functional fan of the first two
    functionals (none for codimension 1), topped up from the pool over the
    functionals' support.
    """
    n = subspace.codimension + 1
    s = sup_norm(x)

    def admissible(z: SparseVec, positions: List[int]) -> bool:
        # demand a usable occurrence: a tag whose coordinate of x clears
        # both the domination and sup-activity thresholds (none if <x, z> = 0)
        bound = min(abs(pair(x, z)), s)
        return any(abs(x[table.tag(k)]) < bound for k in positions)

    fan = ()
    if subspace.codimension >= 2:
        fan = build_fan(subspace.codimension, *subspace.functionals[:2])
    pool_support = sorted({i for phi in subspace.functionals for i in phi.support()})
    chosen = fan_probes(table, fan, n, admissible, pool_support)
    if len(chosen) < n:
        raise SearchBudgetError(
            f"could not assemble {n} admissible probes within depth {REPORT_DEPTH}"
        )
    return chosen


# -- direction search ---------------------------------------------------------


def _candidate_supports(usable: Sequence[int], size: int) -> Iterator[Tuple[int, ...]]:
    """The first ``MAX_CANDIDATES`` subsets of the usable indices:
    increasing max index, then lex."""
    idx = sorted(usable)
    subsets = (rest + (idx[pos],) for pos in range(size - 1, len(idx))
               for rest in combinations(idx[:pos], size - 1))
    return islice(subsets, MAX_CANDIDATES)


def _best_direction(
    report: LinearityReport, candidates: Iterable[SparseVec]
) -> Optional[Tuple[Fraction, SparseVec]]:
    """(margin, v) for the first candidate of largest positive coherence
    margin; None when no margin is positive.

    Margins are scored as the unreduced integer parts of
    :func:`~proxinorm.approxlin._margin_parts` and compared by
    cross-multiplication, so only the winner's margin is normalised into
    a Fraction.  Each distinct candidate is scored once: a repeat has the
    same margin, so under the strict ``>`` the first occurrence wins
    either way.
    """
    best = None
    scored = set()
    for v in candidates:
        if v in scored:
            continue
        scored.add(v)
        parts = _margin_parts(report, v)
        if parts[0] > 0 and (best is None or _parts_less(best[0], parts)):
            best = (parts, v)
    if best is None:
        return None
    return dyadic_sum([best[0]]), best[1]


def _sign_evidence(
    table: ConstructionTable, x: SparseVec, v: SparseVec, report: LinearityReport,
    margin: Fraction, previous: Optional[SignEvidence],
) -> SignEvidence:
    """The step cap at x and the derivative enclosures refined below the
    margin; an enclosure equal to ``previous``'s (the last step's evidence,
    or None) is ``previous``'s object."""
    # Usable indices satisfy |x_i| < |<x, z_j>| and |x_i| < sup_norm(x);
    # cap the step to keep both strict along the ray, so no tag is ever
    # excluded by later reports and descent can continue indefinitely.
    s = sup_norm(x)
    dv, idx, nums = v.integers()
    cap: Optional[Fraction] = None
    for i, vi in zip(idx, nums):  # v_i = vi / dv
        room = min(abs(pair(x, report.probes[report.block[i]])), s) - abs(x[i])
        if room <= 0:
            raise RuntimeError(f"usable index {i} has no room below its thresholds")
        bound = room * dv / (2 * abs(vi))
        cap = bound if cap is None or bound < cap else cap

    bits = bits_for_target(margin / (1 << SIGN_GUARD_BITS))
    d_plus, d_minus = dplus_norm(table, x, v, bits), dminus_norm(table, x, v, bits)
    if previous is not None:
        d_plus = previous.d_plus if d_plus == previous.d_plus else d_plus
        d_minus = previous.d_minus if d_minus == previous.d_minus else d_minus
    return SignEvidence(d_plus, d_minus, cap)


def certify_descent(
    table: ConstructionTable,
    subspace: Subspace,
    x: SparseVec,
    v: SparseVec,
    evidence: SignEvidence,
    norm_x: Optional[Enclosure],
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
    """A minimizing run: consecutive certificates sharing one coset.

    ``stop_reason`` says why :func:`minimizing_sequence` stopped:
    ``completed`` (every step certified), ``probe_budget`` (too few
    admissible probes within ``REPORT_DEPTH``), ``too_few_usable`` (fewer
    usable indices than the codimension plus one), ``no_positive_margin``
    (no candidate direction with a positive coherence margin) or
    ``line_search_budget`` (``MAX_LINE_SEARCH`` halvings without a
    certified decrease).  Only x0 is searched, so ``probe_budget``,
    ``too_few_usable`` and ``no_positive_margin`` leave no certificate.
    It is None for a decoded chain: the wire format does not carry it.
    """

    subspace: Subspace
    x0: SparseVec
    certificates: List[DescentCertificate] = field(default_factory=list)
    stop_reason: Optional[str] = field(default=None, init=False, compare=False)

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
            out.append(prev.norm_after.intersection(nxt.norm_before))
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
            decode = _shared_decoder()
            return DescentChain(
                subspace=Subspace.from_json(obj["subspace"]),
                x0=decode(SparseVec.from_json, obj["x0"]),
                certificates=[DescentCertificate._read(c, decode) for c in certs],
            )
        except KeyError as exc:
            raise InputFormatError(f"chain missing field {exc.args[0]!r}") from exc


def minimizing_sequence(
    table: ConstructionTable, subspace: Subspace, x0: SparseVec, steps: int
) -> DescentChain:
    """Iterate certified steps from x0 along one ray.

    All iterates stay exactly in the coset x0 + H (rational arithmetic,
    directions in the kernel).  Stops early with the partial chain when
    the search budget trips, naming why in ``chain.stop_reason``.  Each
    certificate's ``norm_after`` is handed to the next line search, so
    consecutive certificates usually share one enclosure object.

    The search runs once, at x0: :func:`build_probes`, the report r = x0,
    and :func:`_best_direction` over the kernel directions of the first
    ``MAX_CANDIDATES`` usable-index supports (supports, not distinct
    directions).  No positive margin stops the chain, which never
    disproves existence.

    One ray per chain: x0's probes, report, direction v and margin serve
    every step, and a step reads its iterate x only in the step cap, the
    derivative evidence (refined below the margin) and the line search.
    That is exact: the report built at x from x0's probes differs from
    the one built at r in its ``x`` field alone, given four facts that
    are checked exactly:

    (a) <x, z_j> = <r, z_j> for every probe z_j;
    (b) sup|x| = sup|r|, attained on the same indices;
    (c) x - r is supported in supp v;
    (d) |x_i| < min(|<x, z_j>|, sup|x|) for every i in supp v, z_j the
        probe that lists i.

    Occurrence positions and blocks depend on the probes and the table
    only.  Off supp v, x agrees with r, so by (a) and (b) each of the
    three exclusion tests answers as it did at r.  On supp v every index
    was usable at r, hence outside every probe support, and by (d) it is
    neither dominated nor sup-active at x.  So the usable set is the
    same; gamma_i = -sgn<x, z_j> 2^(-i^2) is the same by (a), and eps
    reads the table only.  The candidates come from the usable set and
    the functionals, and a margin reads gamma and eps only, so the same v
    wins with the same margin.

    The facts hold at every iterate of one ray x = r + (h_1 + ... + h_t) v:
    at x = r, because usable indices are neither sup-active nor dominated;
    later, because v lies on usable indices, which avoid every probe
    support, so (a) holds, and each step's cap keeps every touched |x_i|
    strictly below both thresholds of the point it leaves, which gives
    (d) and, with (c), keeps the sup where it is, off supp v, so (b)
    holds.  A failed check therefore contradicts the argument, and raises
    ``RuntimeError``.

    The certificates of one ray share one v and, while the derivative
    enclosures repeat, one ``d_plus`` and one ``d_minus``
    (:func:`_sign_evidence`).
    """
    if steps < 1:
        raise PreconditionError("steps must be >= 1")
    if all(p == 0 for p in subspace.pairings(x0)):
        raise PreconditionError("x lies in the subspace; the coset is trivial")
    chain = DescentChain(subspace=subspace, x0=x0)
    try:
        probes = build_probes(table, subspace, x0)
    except SearchBudgetError:
        chain.stop_reason = "probe_budget"
        return chain
    report = build_report(table, x0, probes, REPORT_DEPTH)
    size = subspace.codimension + 1
    if len(report.usable) < size:
        chain.stop_reason = "too_few_usable"
        return chain
    best = _best_direction(report, (v for support in _candidate_supports(report.usable, size)
                                    for v in kernel_directions(subspace.functionals, support)))
    if best is None:
        chain.stop_reason = "no_positive_margin"
        return chain
    margin, v = best
    x, norm_x, evidence = x0, None, None
    chain.stop_reason = "completed"
    for _ in range(steps):
        if not _on_ray(report, v, x):
            raise RuntimeError("the report of the ray does not hold at x")
        evidence = _sign_evidence(table, x, v, report, margin, evidence)
        try:
            cert = certify_descent(table, subspace, x, v, evidence, norm_x)
        except SearchBudgetError:
            chain.stop_reason = "line_search_budget"
            break
        chain.certificates.append(cert)
        x = cert.next_point()
        norm_x = cert.norm_after
    return chain


def _on_ray(report: LinearityReport, v: SparseVec, x: SparseVec) -> bool:
    """Facts (a)-(d) of :func:`minimizing_sequence` for the report built at
    r = ``report.x`` with direction v, at the iterate x."""
    r = report.x
    pairings = [pair(x, z) for z in report.probes]
    if pairings != [pair(r, z) for z in report.probes]:
        return False
    s = sup_norm(x)

    def active(y: SparseVec) -> List[int]:  # where |y_i| = s, in y's integers
        d, idx, nums = y.integers()
        return [i for i, n in zip(idx, nums) if abs(n) == s * d]

    if s != sup_norm(r) or active(x) != active(r):
        return False
    if not set((x - r).support()) <= set(v.support()):
        return False
    return all(abs(x[i]) < min(abs(pairings[report.block[i]]), s) for i in v.support())


# -- independent re-verification ----------------------------------------------


def verify_chain(table: ConstructionTable, chain: DescentChain) -> List[str]:
    """Every discrepancy of the chain, in step order: :func:`kernel.verify_chain`
    under the table's depth budget, the only part of ``table`` read."""
    return kernel.verify_chain(table.depth_budget, chain)
