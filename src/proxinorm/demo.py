"""Guided reconstruction of the rotated-functional sign apparatus.

For codimension n, the fan of angles r*pi/(2n+2) produces n+1 base points
x^(r) (cosine/sine coordinates against the first two functionals) and n+1
midpoint-angle functionals psi_s; the pairing <x^(r), psi_s> equals
sin(zeta_s - beta_r), so its sign is +1 exactly when s > r.  The
resulting sign rows (-1 repeated r times, then +1) are linearly
independent with determinant of magnitude 2^n, which is the hinge of the
non-proximinality argument.  Everything trigonometric is certified
interval arithmetic; everything else is exact.  Rational roundings of the
fan are the probes of the linearity reports, here and in descent
(:func:`fan_probes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable, Dict, Iterator, List, Sequence, Tuple, Union

from .approxlin import REPORT_DEPTH, LinearityReport, build_report
from .construction import ConstructionTable
from .errors import PrecisionBudgetError, PreconditionError
from .linalg import int_determinant
from .trig import ANGLE_BITS, base_angles, cos_enclosure, fan_angles, sin_enclosure
from .vectors import Enclosure, SparseVec, _dot, format_rational, pair, round_dyadic, sgn

ROUNDING_DENOMINATOR_BITS = 16  # finest fan-probe rounding, 2^-16


def _predicted_rows(n: int) -> List[List[int]]:
    """The predicted sign rows: row r has r entries -1 followed by +1s."""
    return [[-1] * r + [1] * (n + 1 - r) for r in range(1, n + 2)]


@dataclass(frozen=True)
class FanFunctional:
    """psi_s = sin(zeta_s) * phi1 - cos(zeta_s) * phi2, zeta_s the s-th
    midpoint angle of the codimension-n fan, coefficients certified.

    ``ladder`` holds the midpoints of the coefficient intervals, every entry
    rounded by ``limit_denominator(2^b)``, at index b for b = 0 ..
    ROUNDING_DENOMINATOR_BITS: the probes :func:`fan_probes` tries.
    """

    index: int  # s in 1..n+1
    sin_coeff: Enclosure
    cos_coeff: Enclosure
    phi1: SparseVec
    phi2: SparseVec
    ladder: Tuple[SparseVec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        target = {i: self.coefficient_interval(i).midpoint() for i in self.support()}
        object.__setattr__(self, "ladder", tuple(
            SparseVec({i: v.limit_denominator(1 << b) for i, v in target.items()})
            for b in range(ROUNDING_DENOMINATOR_BITS + 1)
        ))

    def pair_interval(self, x: SparseVec) -> Enclosure:
        p1, p2 = pair(x, self.phi1), pair(x, self.phi2)
        return self.sin_coeff.scale(p1) - self.cos_coeff.scale(p2)

    def coefficient_interval(self, i: int) -> Enclosure:
        return self.sin_coeff.scale(self.phi1[i]) - self.cos_coeff.scale(self.phi2[i])

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.phi1.support()) | set(self.phi2.support())))


@lru_cache
def build_fan(n: int, phi1: SparseVec, phi2: SparseVec) -> Tuple[FanFunctional, ...]:
    """The n+1 midpoint-angle functionals with interval coefficients and
    their rounding ladders.

    All midpoint angles lie strictly inside (0, pi/2), so both
    coefficients are certified positive.  Cached, the package's one fan
    cache: it serves repeated calls within one process.
    """
    if n < 2:
        raise PreconditionError("the fan construction needs codimension >= 2")
    if phi1 == phi2:
        raise PreconditionError("the two anchor functionals must differ")
    return tuple(
        FanFunctional(s, sin_enclosure(zeta), cos_enclosure(zeta), phi1, phi2)
        for s, zeta in enumerate(fan_angles(n), start=1)
    )


# -- probes -------------------------------------------------------------------


def _probe_pool(support: Sequence[int]) -> Iterator[SparseVec]:
    """Deterministic stream of low-height candidate probes."""
    grid = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(-2)]
    base = [i for i in sorted(support) if i <= 3] or [1]
    singles = [SparseVec({i: g}) for i in base for g in grid]
    yield from singles
    for i, j in combinations(base + [m for m in (1, 2) if m not in base], 2):
        for gi in grid:
            for gj in grid:
                yield SparseVec({i: gi, j: gj})


def fan_probes(
    table: ConstructionTable, fan: Sequence[FanFunctional], count: int,
    admissible: Callable[[SparseVec, List[int]], bool], pool_support: Sequence[int],
) -> List[SparseVec]:
    """Up to ``count`` distinct nonzero probes that occur within
    ``REPORT_DEPTH`` stream entries and pass ``admissible(z, positions)``,
    positions being their occurrences.

    The rungs of the fan's ladders are tried from b =
    ROUNDING_DENOMINATOR_BITS down to 0 until all of them pass; the best
    partial fan is topped up from a deterministic pool of low-height probes
    over ``pool_support``.
    """
    def accept(z: SparseVec, chosen: List[SparseVec]) -> bool:
        if z.is_zero() or z in chosen:
            return False
        positions = table.occurrence_positions(z, REPORT_DEPTH)
        return bool(positions) and admissible(z, positions)

    ladders = [f.ladder for f in fan]
    chosen: List[SparseVec] = []
    for bits in range(ROUNDING_DENOMINATOR_BITS, -1, -1):
        attempt: List[SparseVec] = []
        for ladder in ladders:
            if accept(ladder[bits], attempt):
                attempt.append(ladder[bits])
        if len(attempt) > len(chosen):
            chosen = attempt
        if len(attempt) == len(ladders):
            break
    for z in _probe_pool(pool_support):
        if len(chosen) >= count:
            break
        if accept(z, chosen):
            chosen.append(z)
    return chosen


def demo_points(n: int) -> List[SparseVec]:
    """Rational base points x^(r) = cos(beta_r) e1 + sin(beta_r) e2.

    Entries are rounded to within 2^-32 of the true trigonometric values;
    coset minimality is not (and cannot be) enforced at desk scale.
    """
    points = []
    for r, beta in enumerate(base_angles(n)):
        if r == 0:
            continue
        c = cos_enclosure(beta).midpoint().limit_denominator(1 << 34)
        s = sin_enclosure(beta).midpoint().limit_denominator(1 << 34)
        points.append(SparseVec({1: c, 2: s}))
    return points


def certified_sign(x: SparseVec, f: Union[FanFunctional, SparseVec]) -> int:
    """Certified sign of the pairing of x with an exact or fan functional.

    Exact probes give exact signs (sign of 0 is +1 by convention); a fan
    functional's sign is read at ANGLE_BITS, and
    PrecisionBudgetError is raised when its pairing interval contains 0.
    """
    if isinstance(f, SparseVec):
        return sgn(_dot(x, f))  # over a positive denominator
    sign = f.pair_interval(x).sign()
    if not sign:
        raise PrecisionBudgetError(
            f"sign undetermined at {ANGLE_BITS} bits (point {x!r}, fan index {f.index})"
        )
    return sign


def sign_table(
    points: Sequence[SparseVec], functionals: Sequence[Union[FanFunctional, SparseVec]]
) -> List[List[int]]:
    """Certified sign of <x^(r), f_s> for every point/functional pair."""
    return [[certified_sign(x, f) for f in functionals] for x in points]


def theta_blocks(report: LinearityReport, phi: SparseVec) -> Dict[int, List[Fraction]]:
    """theta values of phi grouped by owning probe, usable indices only."""
    blocks: Dict[int, List[Fraction]] = {}
    for i in report.usable:
        blocks.setdefault(report.block[i], []).append(phi[i] * (1 << i * i))
    return blocks


# -- end-to-end walkthrough ---------------------------------------------------


def demo_probes(
    table: ConstructionTable, points: Sequence[SparseVec], fan: Sequence[FanFunctional]
) -> List[SparseVec]:
    """Distinct stream-visible probes pairing nonzero with every point:
    :func:`fan_probes` of the fan, topped up from the pool over its support."""
    n_probes = len(fan)
    chosen = fan_probes(
        table, fan, n_probes, lambda z, _: all(_dot(x, z) != 0 for x in points),
        fan[0].support(),
    )
    if len(chosen) < n_probes:
        raise PreconditionError(
            f"could not assemble {n_probes} demo probes within depth {REPORT_DEPTH}"
        )
    return chosen


_DISPLAY_GRAIN_BITS = 48


def _display(value: Fraction, up: bool = False) -> str:
    """The value rounded down (or up) to the display grain, as a string."""
    return format_rational(round_dyadic(value, _DISPLAY_GRAIN_BITS, up))


def _interval_json(iv: Enclosure) -> Dict[str, str]:
    """Outward-rounded display form; still a valid enclosure."""
    return {"lo": _display(iv.lo), "hi": _display(iv.hi, up=True)}


def run_demo(table, n: int) -> Dict:
    """Full sign-apparatus walkthrough at codimension n; JSON-ready output.

    Covers: certified angle ladder, base points, fan sign table against
    the predicted rows, exact probe sign table, rounding-quality
    accounting, row independence with exact determinant, and the
    tag-weight-scaled traces of the approximate derivative (constant per
    probe block, no tolerance involved).
    """
    phi1, phi2 = SparseVec.unit(1), SparseVec.unit(2)
    fan = build_fan(n, phi1, phi2)
    betas = base_angles(n)
    points = demo_points(n)
    predicted = _predicted_rows(n)
    psi_table = sign_table(points, fan)
    det = int_determinant(predicted)

    probes = demo_probes(table, points, fan)
    z_table = sign_table(points, probes)

    # Rounding quality: the sign transfer from the fan to the probes is
    # guaranteed when every l1 distance stays under half the smallest
    # certified pairing magnitude.
    threshold = min(abs(f.pair_interval(x)).lo for x in points for f in fan) / 2
    distances = []
    for f, z in zip(fan, probes):
        dist = Fraction(0)
        for i in sorted(set(f.support()) | set(z.support())):
            dist += abs(f.coefficient_interval(i) - Enclosure.point(z[i])).hi
        distances.append(dist)
    sign_guarantee = all(d < threshold for d in distances)

    theta_section = []
    for r, x in enumerate(points, start=1):
        report = build_report(table, x, probes, REPORT_DEPTH)
        gvec = report.gamma_vec()
        blocks = theta_blocks(report, gvec)
        sigma_x = {j: sgn(_dot(x, z)) for j, z in enumerate(probes)}
        expected = {j: Fraction(-s) for j, s in sigma_x.items()}
        constant = all(
            len(set(vals)) == 1 and vals[0] == expected[j]
            for j, vals in blocks.items()
        )
        theta_section.append(
            {
                "r": r,
                "sigma_x": {str(j): s for j, s in sorted(sigma_x.items())},
                "theta_blocks": {
                    str(j): [format_rational(v) for v in vals]
                    for j, vals in sorted(blocks.items())
                },
                "constant_per_block": constant,
            }
        )

    return {
        "n": n,
        "beta": [_interval_json(b) for b in betas],
        "zeta": [
            {"sin": _interval_json(f.sin_coeff), "cos": _interval_json(f.cos_coeff)}
            for f in fan
        ],
        "points": [x.to_json() for x in points],
        "predicted_rows": predicted,
        "psi_sign_table": psi_table,
        "psi_matches_prediction": psi_table == predicted,
        "determinant": det,
        "independent": det != 0,
        "probes": [z.to_json() for z in probes],
        "z_sign_table": z_table,
        "z_matches_prediction": z_table == predicted,
        "rounding": {
            "l1_distances": [_display(d, up=True) for d in distances],
            "half_min_pairing": _display(threshold),
            "sign_transfer_guaranteed": sign_guarantee,
        },
        "theta": theta_section,
    }
