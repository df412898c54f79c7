"""The verifier's trusted base: it gives the verdict on a descent chain.

``verify_chain`` checks every certificate of a chain in the integers of
its points.  It enumerates the canonical (vector, tag) stream itself, in
integers, from the definition in the ``construction`` module docstring,
and shares only ``EXACT_HEAD_TERMS`` with the producer: it reads no
``ConstructionTable`` (it is given only the depth budget), no sums from
``norms`` and ``gateaux``, and of ``vectors`` only ``Enclosure`` and
``SparseVec``.  A fault in a producer fast path cannot hide in its own
check.

A stream entry is a tuple of (index, p, q), p/q in lowest terms, with its
tag; the tag's ceil(l1) is taken over the lcm of its level's denominators,
and the growth rules are checked on every tag.  Each call walks the
stream once, to the deepest depth its chain stores, and keeps that prefix
only for the call, so the module holds no state.  Per entry the prefix
holds the integer pairing coefficients of w_k = u_k - e_{a_k} over the
lcm L of its denominators, and per stored depth the tail majorant, so
every certificate of the chain reuses them.

A point is the integers X over d its vector stores, and only d > 0 is
relied on (and checked): every sum is homogeneous in (X, d), and every
equality is taken by cross-multiplication.  y = x + h v is Y over dy in
the same way, so the chaining, the coset and whether v lies in H are
integer pairings with the functionals' numerators.  One walk over
k = 1..K, K the certificate's deepest stored depth, pairs x and v with
w_k in integers; y pairs as <x, w_k> + h <v, w_k>.  Four series (the norm
at x and at y, the right derivative along v and along -v) are
accumulated unreduced over L * 2^(a_K^2), each cut off at its own stored
depth.  The kernel matches an enclosure's lower end and its width: the sup
norm times the tail majorant for a norm, twice the truncation radius for a
derivative.  Their denominators are a small odd number times a power of 2,
so ``Enclosure.has_endpoints`` reduces each with shifts and one gcd with
that odd part, and matches their lowest-terms parts (n, odd, e).
"""

from __future__ import annotations

from itertools import chain, islice, product
from math import gcd, lcm
from typing import Dict, Iterator, List, Sequence, Tuple

from .construction import EXACT_HEAD_TERMS
from .errors import DepthBudgetError, PreconditionError
from .vectors import Enclosure, SparseVec

#: A listed vector as its (index, p, q) entries, ascending in index.
_Entries = Tuple[Tuple[int, int, int], ...]
#: A point as its nonzero numerators by index, over a denominator d > 0.
_Point = Tuple[Dict[int, int], int]
#: A chain's prefix: the tags, the pairing rows over L, L, and the tail
#: majorant at each stored depth.
_Prefix = Tuple[List[int], List[List[Tuple[int, int]]], int, Dict[int, Tuple[int, int]]]

_FIELDS = ("norm_before", "norm_after", "d_plus", "d_minus")


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


def _supports(top: int, start: int = 1) -> Iterator[Tuple[int, ...]]:
    """Nonempty ascending index tuples over start..top, in lex order."""
    for i in range(start, top + 1):
        yield (i,)
        for rest in _supports(top, i + 1):
            yield (i,) + rest


def _stream() -> Iterator[Tuple[_Entries, int, int]]:
    """The canonical stream as (entries, tag, D), D the lcm of the listed
    vector's level denominators.

    Level h lists the zero vector, then, for every support over 1..h in lex
    order, every tuple of entries from the ascending grid of p/q with
    |p| + q <= h.  Each tag is the least the growth rules allow.
    """
    prev, h = 0, 1
    while True:
        D = lcm(*range(1, h))
        grid = sorted(  # p/q = (p * D/q) / D orders the grid
            (p * (D // q), p, q)
            for q in range(1, h) for p in range(q - h, h - q + 1) if p and gcd(p, q) == 1
        )
        cells = [[(i, p, q) for _, p, q in grid] for i in range(h + 1)]
        weights = [abs(n) for n, _, _ in grid]  # D * |p/q|
        for supp in chain([()], _supports(h)):
            top = supp[-1] if supp else 0
            listed = product(*[cells[i] for i in supp])
            for entries, ws in zip(listed, product(weights, repeat=len(supp))):
                l1 = sum(ws)  # D * l1 norm
                tag = max(prev + 1, top + 1, -(-l1 // D))
                if not (tag > prev and tag > top and tag * D >= l1):
                    raise RuntimeError(f"tag {tag} for {entries} breaks the growth rules")
                prev = tag
                yield entries, tag, D
        h += 1


def _stream_prefix(K: int) -> Tuple[List[int], List[List[Tuple[int, int]]], int]:
    """The first K stream entries as (tags, rows, L): per entry k the tag
    a_k and the pairing row of w_k = u_k - e_{a_k}, as (index, coefficient)
    pairs over L, the lcm of the prefix's level denominators."""
    listed = list(islice(_stream(), K))
    L = lcm(*(D for _, _, D in listed))
    # a_k exceeds every index of u_k, so the -L at a_k is a separate pair
    rows = [[(i, p * (L // q)) for i, p, q in entries] + [(a, -L)] for entries, a, _ in listed]
    return [a for _, a, _ in listed], rows, L


def _integral(x: SparseVec) -> _Point:
    """(X, d) with x = X / d as stored; the sums are homogeneous in (X, d)."""
    d, idx, nums = x.integers()
    if d < 1:
        raise PreconditionError(f"vector denominator {d} is not positive")
    return {i: n for i, n in zip(idx, nums) if n}, d


def _dot(X: Dict[int, int], P: Dict[int, int]) -> int:
    return sum(n * P.get(i, 0) for i, n in X.items())


def _same(a: _Point, b: _Point) -> bool:
    (A, da), (B, db) = a, b
    return all(A.get(i, 0) * db == B.get(i, 0) * da for i in A.keys() | B.keys())


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


def verify_chain(depth_budget: int, chain) -> List[str]:
    """Every discrepancy of a descent chain, as ``step t: ...`` problems in
    step order; empty when the chain is genuine.

    Per certificate t, in order: whether its base point is the previous
    iterate (x0 at t = 0), whether v lies in H, whether each stored
    enclosure (the norm at x, the norm at y = x + h v, the right and the
    left derivative at x along v) is the one the stream gives at its
    stored depth, whether the derivative evidence shows one definite sign,
    and whether y stays in the coset x0 + H.  The strict decrease needs no
    check: a certificate without one cannot be decoded.

    Before any of that, the points are read and each stored depth is
    checked, in certificate and field order: below 1 is a
    PreconditionError, past ``depth_budget`` the DepthBudgetError a walk
    in increasing k would raise.
    """
    x0 = _integral(chain.x0)
    steps = []
    for cert in chain.certificates:
        stored = [getattr(cert, name) for name in _FIELDS]
        for enc in stored:
            if enc.depth < 1:
                raise PreconditionError("depth must be >= 1")
            if enc.depth > depth_budget:
                raise DepthBudgetError(
                    f"table index {depth_budget + 1} exceeds depth budget {depth_budget}"
                )
        steps.append((cert, stored, _integral(cert.x), _integral(cert.v)))
    depths = {enc.depth for _, stored, _, _ in steps for enc in stored}
    tags, rows, L = _stream_prefix(max(depths, default=0))
    prefix = tags, rows, L, {depth: growth_majorant(tags[depth - 1] + 1) for depth in depths}
    # each functional's numerators: every check below is homogeneous in its denominator
    funcs = [dict(zip(*phi.integers()[1:])) for phi in chain.subspace.functionals]
    base = [_dot(x0[0], P) for P in funcs]  # <x0, phi> times d0 and phi's denominator

    problems: List[str] = []
    previous = x0
    for t, (cert, stored, (X, dx), (V, dv)) in enumerate(steps):
        h = cert.h
        # y = Y / dy with Y = X * dv * hd + hn * dx * V, h = hn / hd
        fx, fv = dv * h.denominator, h.numerator * dx
        Y, dy = {i: X.get(i, 0) * fx + V.get(i, 0) * fv for i in X.keys() | V.keys()}, dx * fx
        if not _same((X, dx), previous):
            problems.append(f"step {t}: base point does not chain")
        if any(_dot(V, P) for P in funcs):
            problems.append(f"step {t}: v is not in the subspace")
        matches = _recomputes(prefix, stored, (X, dx), (V, dv), (Y, dy), fx, fv)
        for name, ok in zip(_FIELDS, matches):
            if not ok:
                problems.append(f"step {t}: {name} does not recompute")
        sign = cert.d_plus.sign()
        if sign == 0 or sign != cert.d_minus.sign():
            problems.append(f"step {t}: derivative evidence does not determine a shared sign")
        if any(_dot(Y, P) * x0[1] != b * dy for P, b in zip(funcs, base)):
            problems.append(f"step {t}: iterate left the coset")
        previous = Y, dy
    return problems


def _recomputes(
    prefix: _Prefix, stored: Sequence[Enclosure], x: _Point, v: _Point, y: _Point, fx: int, fv: int
) -> List[bool]:
    """Whether each stored enclosure is the one the prefix gives at its
    stored depth, y = x + h v with Y = X * fx + V * fv."""
    tags, rows, L, tails = prefix
    (X, dx), (V, dv), (Y, dy) = x, v, y
    d_x, d_y, d_plus, d_minus = depths = [enc.depth for enc in stored]
    K = max(depths)
    A = tags[K - 1] ** 2
    sx = sy = sp = sm = 0  # the four series times d * L * 2^A, d the denominator of x, y or v
    for k, (row, a) in enumerate(zip(rows[:K], tags), 1):
        px = pv = 0
        for i, c in row:
            px += c * X.get(i, 0)
            pv += c * V.get(i, 0)
        shift = A - a * a
        if k <= d_x:
            sx += abs(px) << shift
        if k <= d_y:
            sy += abs(px * fx + pv * fv) << shift
        if pv:  # a direction of small support pairs to 0 with most w_k
            term = abs(pv) << shift
            # sign of <+-v, w_k> <x, w_k>, with the sign of 0 counted +1
            if k <= d_plus:
                sp += term if pv * px >= 0 else -term
            if k <= d_minus:
                sm += term if pv * px <= 0 else -term

    scale = L << A

    def norm_matches(enc: Enclosure, Z: Dict[int, int], dz: int, series: int) -> bool:
        t, g = tails[enc.depth]
        s, den = _sup(Z), dz * scale
        return enc.has_endpoints((s * scale + series, den), (s * t * scale, den << g))

    def derivative_matches(enc: Enclosure, centre: int, sign: int) -> bool:
        t, g = tails[enc.depth]
        centre = sign * centre << g
        radius = _sup(V) * t * scale
        den = dv * scale << g
        return enc.has_endpoints((centre - radius, den), (2 * radius, den))

    minus_v = {i: -vi for i, vi in V.items()}
    return [
        norm_matches(stored[0], X, dx, sx),
        norm_matches(stored[1], Y, dy, sy),
        derivative_matches(stored[2], _sup_derivative(X, V) * scale + sp, 1),
        # the left derivative is the reflection -d_plus(x; -v)
        derivative_matches(stored[3], _sup_derivative(X, minus_v) * scale + sm, -1),
    ]
