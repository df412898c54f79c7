"""Independent re-derivation of the four enclosures of a descent certificate.

This is the verifier's trusted base.  It reads the (vector, tag) stream,
which defines the norm, and nothing else of the producer: no series or
derivative sums from ``norms`` and ``gateaux``, no ``bits`` helpers and no
tail memo.  A fault in a producer fast path therefore cannot hide in its
own check.

Points are integer vectors over a common denominator.  One walk over
k = 1..K, K the deepest stored depth, forms the integer pairings of x and
v with w_k = u_k - e_{a_k} over the lcm L of the stream denominators;
y = x + h v pairs as <x, w_k> + h <v, w_k>.  Four series (the norm at x
and at y, the right derivative along v and along -v) are accumulated
unreduced over L * 2^(a_K^2), each cut off at its own stored depth.  The
stored endpoints are compared by cross-multiplication, so no gcd runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Sequence, Tuple

from .construction import EXACT_HEAD_TERMS, ConstructionTable
from .errors import PreconditionError
from .vectors import Enclosure, SparseVec


def growth_majorant(m: int) -> Tuple[int, int]:
    """(t, g) with t / 2^g an upper bound for sum over n >= m of
    (1 + n) * 2^(-n^2), m >= 1: EXACT_HEAD_TERMS exact terms, then
    2 * (1 + M) * 2^(-M^2) at M = m + EXACT_HEAD_TERMS, rounded up to the
    grain g = (m + 2)^2 + 2."""
    M = m + EXACT_HEAD_TERMS
    E = M * M
    num = 2 * (1 + M)
    for n in range(m, M):
        num += (1 + n) << (E - n * n)
    g = (m + 2) * (m + 2) + 2
    return -((-num) >> (E - g)), g


def _integral(x: SparseVec) -> Tuple[Dict[int, int], int]:
    """(X, d) with x = X / d, d the lcm of the entry denominators."""
    d = lcm(*(f.denominator for _, f in x.items()))
    return {i: f.numerator * (d // f.denominator) for i, f in x.items()}, d


def _sup(X: Dict[int, int]) -> int:
    return max(map(abs, X.values()), default=0)


def _sup_derivative(X: Dict[int, int], V: Dict[int, int]) -> int:
    """Right derivative of the sup norm at X along V, over V's denominator:
    the largest |V_i| moving outward at a maximizing coordinate, else minus
    the smallest |V_i| among them; sup |V| at X = 0."""
    if not X:
        return _sup(V)
    m = _sup(X)
    outward, inward = [], []
    for i, xi in X.items():
        if abs(xi) == m:
            vi = V.get(i, 0)
            (outward if vi * xi > 0 else inward).append(abs(vi))
    return max(outward) if outward else -min(inward)


def _equals(stored: Fraction, num: int, den: int) -> bool:
    return stored.numerator * den == stored.denominator * num


def enclosures_match(
    table: ConstructionTable,
    x: SparseVec,
    v: SparseVec,
    h: Fraction,
    stored: Sequence[Enclosure],
) -> List[bool]:
    """Whether each stored enclosure (the norm at x, the norm at x + h v,
    the right derivative at x along v, the left derivative at x along v)
    is the one the stream gives at its stored depth.

    Each depth is checked in that order: below 1 is a PreconditionError,
    past the table's budget the DepthBudgetError a walk in increasing k
    would raise.
    """
    depths = [e.depth for e in stored]
    for depth in depths:
        if depth < 1:
            raise PreconditionError("depth must be >= 1")
        if depth > table.depth_budget:
            table.entry(table.depth_budget + 1)  # raises, naming index budget + 1
    entries = list(table.prefix(max(depths)))
    L = lcm(*(f.denominator for _, u, _ in entries for _, f in u.items()))
    A = entries[-1][2] ** 2
    X, dx = _integral(x)
    V, dv = _integral(v)
    # y = Y / dy with Y = X * dv * hd + hn * dx * V
    hn, hd = h.numerator, h.denominator
    fx, fv = dv * hd, hn * dx
    Y = {i: X.get(i, 0) * fx + V.get(i, 0) * fv for i in X.keys() | V.keys()}

    d_x, d_y, d_plus, d_minus = depths
    sx = sy = sp = sm = 0  # the four series times d * L * 2^A, d the denominator of x, y or v
    for k, u, a in entries:
        px = pv = 0
        for i, f in u.items():
            c = f.numerator * (L // f.denominator)
            px += c * X.get(i, 0)
            pv += c * V.get(i, 0)
        px -= L * X.get(a, 0)
        pv -= L * V.get(a, 0)
        shift = A - a * a
        if k <= d_x:
            sx += abs(px) << shift
        if k <= d_y:
            sy += abs(px * fx + pv * fv) << shift
        # sign of <+-v, w_k> <x, w_k>, with the sign of 0 counted +1
        if k <= d_plus:
            sp += (abs(pv) if pv * px >= 0 else -abs(pv)) << shift
        if k <= d_minus:
            sm += (abs(pv) if pv * px <= 0 else -abs(pv)) << shift

    scale = L << A
    tails = {depth: growth_majorant(entries[depth - 1][2] + 1) for depth in set(depths)}

    def norm_matches(enc: Enclosure, Z: Dict[int, int], dz: int, series: int) -> bool:
        t, g = tails[enc.depth]
        s = _sup(Z)
        lo = s * scale + series
        den = dz * scale
        return _equals(enc.lo, lo, den) and _equals(enc.hi, (lo << g) + s * t * scale, den << g)

    def derivative_matches(enc: Enclosure, centre: int, sign: int) -> bool:
        t, g = tails[enc.depth]
        centre = sign * centre << g
        radius = _sup(V) * t * scale
        den = dv * scale << g
        return _equals(enc.lo, centre - radius, den) and _equals(enc.hi, centre + radius, den)

    minus_v = {i: -vi for i, vi in V.items()}
    return [
        norm_matches(stored[0], X, dx, sx),
        norm_matches(stored[1], Y, dx * dv * hd, sy),
        derivative_matches(stored[2], _sup_derivative(X, V) * scale + sp, 1),
        # the left derivative is the reflection -d_plus(x; -v)
        derivative_matches(stored[3], _sup_derivative(X, minus_v) * scale + sm, -1),
    ]
