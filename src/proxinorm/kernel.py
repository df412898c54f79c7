"""Independent re-derivation of the four enclosures of a descent certificate.

This is the verifier's trusted base.  It enumerates the canonical (vector,
tag) stream itself, in integers, from the definition in the
``construction`` module docstring, and shares only ``EXACT_HEAD_TERMS``
with the producer: it reads no ``ConstructionTable`` entry (the table it
is given supplies only its ``depth_budget``), no series or derivative sums
from ``norms`` and ``gateaux``, no ``bits`` helpers and no tail memo.  A
fault in a producer fast path therefore cannot hide in its own check.

A stream entry is a tuple of (index, p, q), p/q in lowest terms, with its
tag; the tag's ceil(l1) is taken over the lcm of its level's denominators,
and the growth rules are checked on every tag.  The kernel keeps one
prefix per table, weakly keyed so that it lives no longer than the table,
and extends it lazily to the deepest stored depth asked for.  Per entry it
holds the integer pairing coefficients of w_k = u_k - e_{a_k} over the lcm
L of the prefix's denominators, and per depth the tail majorant, so every
certificate of a chain reuses them.

Points are integer vectors over a common denominator.  One walk over
k = 1..K, K the deepest stored depth, forms the integer pairings of x and
v with w_k; y = x + h v pairs as <x, w_k> + h <v, w_k>.  Four series (the
norm at x and at y, the right derivative along v and along -v) are
accumulated unreduced over L * 2^(a_K^2), each cut off at its own stored
depth.  The stored endpoints are compared by cross-multiplication, so no
gcd runs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm
from typing import Dict, Iterator, List, Sequence, Tuple
from weakref import WeakKeyDictionary

from .construction import EXACT_HEAD_TERMS
from .errors import DepthBudgetError, PreconditionError
from .vectors import Enclosure, SparseVec

#: A listed vector as its (index, p, q) entries, ascending in index.
_Entries = Tuple[Tuple[int, int, int], ...]


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
        nonzero = (product(*[cells[i] for i in supp]) for supp in _supports(h))
        for entries in chain([()], chain.from_iterable(nonzero)):
            top = entries[-1][0] if entries else 0
            l1 = 0  # D * l1 norm
            for _, p, q in entries:
                l1 += abs(p) * (D // q)
            tag = max(prev + 1, top + 1, -(-l1 // D))
            if not (tag > prev and tag > top and tag * D >= l1):
                raise RuntimeError(f"tag {tag} for {entries} breaks the growth rules")
            prev = tag
            yield entries, tag, D
        h += 1


class _Prefix:
    """One table's stream prefix as the kernel walks it: per entry k the
    tag a_k and the pairing row of w_k = u_k - e_{a_k}, as (index,
    coefficient) pairs over L, the lcm of the prefix's level denominators."""

    def __init__(self) -> None:
        self._stream = _stream()
        self._entries: List[_Entries] = []
        self.tags: List[int] = []
        self.rows: List[List[Tuple[int, int]]] = []
        self.L = 1
        self._tails: Dict[int, Tuple[int, int]] = {}

    def extend(self, K: int) -> None:
        """Walk the stream to K entries."""
        n = len(self.tags)
        L = self.L
        for _ in range(K - n):
            entries, tag, D = next(self._stream)
            self._entries.append(entries)
            self.tags.append(tag)
            L = lcm(L, D)
        if L != self.L:  # a new level: every row is re-expressed over the new lcm
            self.L, n = L, 0
        # a_k exceeds every index of u_k, so the -L at a_k is a separate pair
        self.rows[n:] = [
            [(i, p * (L // q)) for i, p, q in entries] + [(a, -L)]
            for entries, a in zip(self._entries[n:], self.tags[n:])
        ]

    def tail(self, depth: int) -> Tuple[int, int]:
        """growth_majorant past the tag at ``depth``."""
        cached = self._tails.get(depth)
        if cached is None:
            cached = self._tails[depth] = growth_majorant(self.tags[depth - 1] + 1)
        return cached


#: Each table's prefix, dropped with the table.
_PREFIXES: WeakKeyDictionary[object, _Prefix] = WeakKeyDictionary()


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
    table,
    x: SparseVec,
    v: SparseVec,
    h: Fraction,
    stored: Sequence[Enclosure],
) -> List[bool]:
    """Whether each stored enclosure (the norm at x, the norm at x + h v,
    the right derivative at x along v, the left derivative at x along v)
    is the one the stream gives at its stored depth.

    Of ``table`` only ``depth_budget`` is read.  Each depth is checked in
    that order: below 1 is a PreconditionError, past the budget the
    DepthBudgetError a walk in increasing k would raise.
    """
    depths = [e.depth for e in stored]
    budget = table.depth_budget
    for depth in depths:
        if depth < 1:
            raise PreconditionError("depth must be >= 1")
        if depth > budget:
            raise DepthBudgetError(f"table index {budget + 1} exceeds depth budget {budget}")
    K = max(depths)
    prefix = _PREFIXES.get(table)
    if prefix is None:
        prefix = _PREFIXES[table] = _Prefix()
    prefix.extend(K)
    L, tags = prefix.L, prefix.tags
    A = tags[K - 1] ** 2
    X, dx = _integral(x)
    V, dv = _integral(v)
    # y = Y / dy with Y = X * dv * hd + hn * dx * V
    hn, hd = h.numerator, h.denominator
    fx, fv = dv * hd, hn * dx
    Y = {i: X.get(i, 0) * fx + V.get(i, 0) * fv for i in X.keys() | V.keys()}

    d_x, d_y, d_plus, d_minus = depths
    sx = sy = sp = sm = 0  # the four series times d * L * 2^A, d the denominator of x, y or v
    for k, (row, a) in enumerate(zip(prefix.rows[:K], tags), 1):
        px = pv = 0
        for i, c in row:
            px += c * X.get(i, 0)
            pv += c * V.get(i, 0)
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
    tails = {depth: prefix.tail(depth) for depth in set(depths)}

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
