"""Certified evaluation of the series norm.

The norm of x is its sup norm plus the weighted series of pairing
magnitudes |<x, u_k - e_{a_k}>| with weights 2^(-a_k^2) over the
construction table.  Partial sums are exact rationals; the only error
source is truncation, and it is one-sided, so an enclosure is always
[S_K, S_K + T_K] with T_K = sup_norm(x) * tail_bound(K).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Tuple

from .construction import ConstructionTable
from .errors import DepthBudgetError, PreconditionError
from .vectors import Enclosure, SparseVec, dyadic_sum, sup_norm

DEFAULT_PRECISION_BITS = 64
PRECISION_CAP = 1 << 20


def _stream_pairings(table, x: SparseVec, depth: int) -> Iterator[Tuple[int, int, int]]:
    """(n, q, a_k) per k <= depth: <x, u_k - e_{a_k}> = n / q, q = d * d_k unreduced."""
    d, idx, nums = x.integers()
    X = dict(zip(idx, nums))
    for _, u, a in table.prefix(depth):
        du, ui, un = u.integers()
        n = -du * X.get(a, 0)
        for i, c in zip(ui, un):
            n += c * X.get(i, 0)
        yield n, d * du, a


def series_partial_sum(table: ConstructionTable, x: SparseVec, depth: int) -> Fraction:
    """Exact sum over k <= depth of 2^(-a_k^2) * |<x, u_k - e_{a_k}>|."""
    return dyadic_sum([(abs(n), q, a * a) for n, q, a in _stream_pairings(table, x, depth) if n])


def enclosure_at_depth(table: ConstructionTable, x: SparseVec, depth: int) -> Enclosure:
    """Norm enclosure at a fixed truncation depth (deterministic)."""
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    s = sup_norm(x)
    lo = s + series_partial_sum(table, x, depth)
    return Enclosure.around(lo, 0, s * table.tail_bound(depth), depth)


def _minimal_depth(table: ConstructionTable, scale: Fraction, precision_bits: int) -> int:
    """Minimal K >= 1 with scale * tail_bound(K) < 2^(-precision_bits)."""
    if precision_bits < 1 or precision_bits > PRECISION_CAP:
        raise PreconditionError(f"precision_bits must be in [1, {PRECISION_CAP}]")
    if scale == 0:
        return 1
    target = Fraction(1, 1 << precision_bits) / scale

    def ok(K: int) -> bool:
        return table.tail_bound(K) < target

    lo, K = 0, 1
    while not ok(K):
        if K >= table.depth_budget:
            raise DepthBudgetError(
                f"depth budget {table.depth_budget} cannot reach 2^-{precision_bits}"
            )
        lo, K = K, min(2 * K, table.depth_budget)
    while lo + 1 < K:  # minimal depth in (lo, K]; ok(K) holds, ok(lo) fails
        mid = (lo + K) // 2
        if ok(mid):
            K = mid
        else:
            lo = mid
    return K


def norm_depth(table: ConstructionTable, x: SparseVec, precision_bits: int) -> int:
    """Truncation depth of :func:`norm_enclosure` at this precision, without
    summing the series; the enclosure at a depth is deterministic, so an
    enclosure of x at this depth is the one it would return."""
    return _minimal_depth(table, sup_norm(x), precision_bits)


def norm_enclosure(
    table: ConstructionTable, x: SparseVec, precision_bits: int
) -> Enclosure:
    """Certified enclosure of the series norm with width < 2^(-precision_bits).
    A width target w > 0 is met at ``vectors.bits_for_target(w)`` bits."""
    return enclosure_at_depth(table, x, norm_depth(table, x, precision_bits))

