"""Deterministic stream of (vector, tag) pairs driving the series norm.

The stream lists every finitely supported rational vector infinitely many
times, paired with a strictly increasing tag sequence of positive integers
subject to the growth rules: whenever the listed vector is nonzero, its
tag exceeds the largest support index and is at least the ceiling of its
l1 norm.

The canonical enumeration is by "height": height(0) = 1, and otherwise
height(x) = max(largest support index, max over entries p/q in lowest
terms of |p| + q).  Enumeration level L lists all vectors of height <= L
in lexicographic order of (support tuple, entry tuple); the stream is
level 1, then level 2, and so on, so each vector of height <= L recurs
once per level from L onward.  Tags take the minimal admissible value at
every step, which keeps the weights 2^(-tag^2) as large as possible.

The whole module is exact; series tails are bounded by closed-form
majorants evaluated in integer arithmetic.  The verifier's ``kernel``
enumerates the same stream from this definition with code of its own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Dict, Iterator, List, Tuple

from .errors import DepthBudgetError
from .vectors import SparseVec, _LowestTerms, _over_lcm, _parts, _vec, dyadic_parts, round_dyadic

DEFAULT_DEPTH_BUDGET = 5000

#: Exact head terms of weight_tail_bound's lower bound and of the majorant.
EXACT_HEAD_TERMS = 50


def rational_grid(height: int) -> List[Fraction]:
    """All nonzero rationals p/q in lowest terms with |p| + q <= height, sorted."""
    out = []
    for q in range(1, height):
        for p in range(1, height - q + 1):
            if math.gcd(p, q) == 1:
                out.append(Fraction(p, q))
                out.append(Fraction(-p, q))
    out.sort()
    return out


def _supports_lex(max_index: int) -> Iterator[Tuple[int, ...]]:
    """Nonempty ascending index tuples over {1..max_index} in lex order."""

    def rec(prefix: Tuple[int, ...], start: int) -> Iterator[Tuple[int, ...]]:
        for i in range(start, max_index + 1):
            ext = prefix + (i,)
            yield ext
            yield from rec(ext, i + 1)

    yield from rec((), 1)


def _stream() -> Iterator[Tuple[SparseVec, int]]:
    """The canonical (vector, tag) stream: the vectors of level 1, level 2,
    ... in the order of the module docstring (``iter_level`` in
    ``tests/test_construction.py`` lists them in Fractions), each tag the
    least the growth rules allow (the kernel checks them).

    ceil(l1) is taken in integers over D, the lcm of the level's
    denominators.  Each distinct vector is built once per stream, keyed by
    its (index, p, odd, e) entries, p / (odd * 2^e), so its recurrences in
    later levels are the same object, hash cached.
    """
    built: Dict[Tuple[Tuple[int, int, int, int], ...], SparseVec] = {}
    tag, level = 0, 1
    while True:
        grid = rational_grid(level)
        D = math.lcm(*range(1, level))
        cells = [[(i, *_parts(f)) for f in grid] for i in range(level + 1)]
        weights = [abs(f.numerator) * (D // f.denominator) for f in grid]  # D * |f|
        tag += 1
        yield SparseVec.zero(), tag
        for supp in _supports_lex(level):
            listed = product(*[cells[i] for i in supp])
            for entries, ws in zip(listed, product(weights, repeat=len(supp))):
                u = built.get(entries)
                if u is None:
                    u = built[entries] = _vec(*_over_lcm(entries))
                tag = max(tag + 1, supp[-1] + 1, -(-sum(ws) // D))
                yield u, tag
        level += 1


def _tail_majorant(m: int, slope: int) -> Fraction:
    """Upper bound for sum over n >= m of (1 + slope*n) * 2^(-n^2), m >= 1,
    slope 0 or 1: the ceiling at the grain 2^(-g), g = (m+2)^2 + 2, of the
    terms n < M = m + EXACT_HEAD_TERMS plus 2*(1 + slope*M)*2^(-M^2), which
    dominates the rest as (1 + slope*(M+j)) <= (1 + slope*M)*2^j.
    That ceiling is three terms plus one grain: terms n <= m+2 are multiples
    of 2^(-g) (g - n^2 >= 2); the rest is positive and, each term at most
    half the one before, below (m+4)*2^(-g-2m-2) < 2^(-g).  The numerator
    is odd, so the Fraction is built in lowest terms, with no gcd.  The
    grain is far below the dropped head term, so strict decrease in m
    survives the rounding.
    """
    if m < 1:
        raise ValueError("majorant requires m >= 1")
    g = (m + 2) * (m + 2) + 2
    num = 1
    for n in range(m, m + 3):
        num += (1 + slope * n) << (g - n * n)
    return Fraction(_LowestTerms((num, 1, g)))


def growth_tail_majorant(m: int) -> Fraction:
    """Upper bound for sum over n >= m of (1+n) * 2^(-n^2), m >= 1."""
    return _tail_majorant(m, 1)


def square_tail_majorant(m: int) -> Fraction:
    """Upper bound for sum over n >= m of 2^(-n^2), m >= 1."""
    return _tail_majorant(m, 0)


class ConstructionTable:
    """Append-only cache of the canonical (vector, tag) stream.

    Two tables produce identical prefixes; the enumeration is fixed.
    Extension is lazy: ``entry(k)`` grows the cache to position k, raising
    DepthBudgetError past ``depth_budget``.
    """

    def __init__(self, depth_budget: int = DEFAULT_DEPTH_BUDGET):
        if depth_budget < 1:
            raise ValueError("depth_budget must be positive")
        self.depth_budget = depth_budget
        self._vectors: List[SparseVec] = []
        self._tags: List[int] = []
        self._occurrences: Dict[SparseVec, List[int]] = {}
        self._stream = _stream()
        self._weight_tail_memo: Dict[int, Tuple[Fraction, Fraction]] = {}

    def __len__(self) -> int:
        return len(self._vectors)

    def _extend_to(self, k: int) -> None:
        if k > self.depth_budget:
            raise DepthBudgetError(
                f"table index {k} exceeds depth budget {self.depth_budget}"
            )
        while len(self._vectors) < k:
            u, tag = next(self._stream)
            self._vectors.append(u)
            self._tags.append(tag)
            self._occurrences.setdefault(u, []).append(len(self._vectors))

    def entry(self, k: int) -> Tuple[SparseVec, int]:
        """The k-th (vector, tag) pair, 1-based; extends the cache."""
        if k < 1:
            raise ValueError("k must be >= 1")
        self._extend_to(k)
        return self._vectors[k - 1], self._tags[k - 1]

    def tag(self, k: int) -> int:
        """Tag a_k; a_0 = 0 by convention."""
        if k < 1:
            if k < 0:
                raise ValueError("k must be >= 0")
            return 0
        self._extend_to(k)
        return self._tags[k - 1]

    def prefix(self, k_max: int) -> Iterator[Tuple[int, SparseVec, int]]:
        """(k, vector, tag) for k = 1..k_max."""
        self._extend_to(k_max)
        for k in range(1, k_max + 1):
            yield k, self._vectors[k - 1], self._tags[k - 1]

    def occurrence_positions(self, x: SparseVec, k_max: int) -> List[int]:
        """Positions k <= k_max at which the stream lists x, ascending."""
        self._extend_to(k_max)
        return [k for k in self._occurrences.get(x, []) if k <= k_max]

    def tail_bound(self, K: int) -> Fraction:
        """Certified upper bound for sum over k > K of (1 + a_k) * 2^(-a_k^2).

        Tags are strictly increasing integers, so the tail is dominated by
        the full integer series starting at a_K + 1.
        """
        if K < 0:
            raise ValueError("K must be >= 0")
        return growth_tail_majorant(self.tag(K) + 1)

    def weight_tail_bound(self, k: int) -> Tuple[Fraction, Fraction]:
        """Certified (lower, upper) bounds for sum over l > k of 2^(-a_l^2).

        The lower bound sums EXACT_HEAD_TERMS exact table terms (fewer near
        the depth budget); the upper bound adds the square-series majorant
        from the next unseen tag on.  Both are rounded outward to multiples
        of 2^(-g), g = a^2 + 4a + 16 with a = a_k: the sum sits near
        2^(-a^2-2a), so the grain keeps about 2a + 16 significant bits and
        small denominators without weakening either certificate.

        The bounds depend only on the table prefix, so each table memoizes
        them per k; a repeat call returns the same tuple.  The repeats come
        from :func:`demo.run_demo`, which builds one report per base point.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        cached = self._weight_tail_memo.get(k)
        if cached is None:
            cached = self._weight_tail_bound(k)
            self._weight_tail_memo[k] = cached
        return cached

    def _weight_tail_bound(self, k: int) -> Tuple[Fraction, Fraction]:
        J = min(k + EXACT_HEAD_TERMS, self.depth_budget)
        if J <= k:
            raise DepthBudgetError(f"no room past index {k} within budget")
        self._extend_to(J)
        num, _, E = dyadic_parts((1, 1, a * a) for a in self._tags[k:J])
        majorant = square_tail_majorant(self._tags[J - 1] + 1)
        a = self.tag(k)
        g = a * a + 4 * a + 16
        if E >= g:
            lo_num = num >> (E - g)
            hi_num = -((-num) >> (E - g))
        else:
            lo_num = hi_num = num << (g - E)
        upper = Fraction(hi_num, 1 << g) + majorant
        return Fraction(lo_num, 1 << g), round_dyadic(upper, g, up=True)


def canonical_table(depth_budget: int = DEFAULT_DEPTH_BUDGET) -> ConstructionTable:
    return ConstructionTable(depth_budget)
