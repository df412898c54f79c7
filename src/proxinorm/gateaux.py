"""Closed-form one-sided directional derivatives of the norms.

The sup-norm derivative is an exact finite max/min over the maximizing
coordinates; the series-norm derivative adds one exactly signed term per
table entry, so enclosures carry a two-sided truncation radius (signed
tail terms), unlike the one-sided norm enclosures.  Signs are always
computed from exact rational pairings, never from intervals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from .construction import ConstructionTable
from .errors import InputFormatError, PreconditionError
from .norms import _minimal_depth, _stream_pairings
from .vectors import Enclosure, SparseVec, dyadic_sum, sup_norm


_SIGN_NAMES = {1: "positive", -1: "negative", 0: "straddles_zero"}


def derivative_to_json(enc: Enclosure) -> Dict[str, object]:
    """Wire form of a derivative enclosure: its fields and its sign."""
    return {**enc.to_json(), "sign": _SIGN_NAMES[enc.sign()]}


def derivative_from_json(obj: object) -> Enclosure:
    """Inverse of :func:`derivative_to_json`; a ``sign`` field, if present,
    must be the one ``lo``/``hi`` determine."""
    enc = Enclosure.from_json(obj, "derivative enclosure")
    if "sign" in obj and obj["sign"] != _SIGN_NAMES[enc.sign()]:
        raise InputFormatError("sign field inconsistent with lo/hi")
    return enc


def dplus_sup(x: SparseVec, u: SparseVec) -> Fraction:
    """Right derivative of the sup norm at x in direction u (exact).

    At x = 0 this is sup_norm(u).  Otherwise only the coordinates where
    |x_n| attains the sup matter: the result is the largest |u_n| among
    those moving outward (u_n x_n > 0), or minus the smallest |u_n| among
    the rest.  A zero direction entry at the only maximizing coordinate
    lands in the second case and yields 0.
    """
    if x.is_zero():
        return sup_norm(u)
    m = sup_norm(x)
    moves = [(u[i] * v > 0, abs(u[i])) for i, v in x.items() if abs(v) == m]
    outward = [size for out, size in moves if out]
    return max(outward) if outward else -min(size for _, size in moves)


def derivative_series_sum(
    table: ConstructionTable, x: SparseVec, u: SparseVec, depth: int
) -> Fraction:
    """Exact signed sum over k <= depth of the derivative series terms.

    Term k is 2^(-a_k^2) * s_k * |<u, w_k>| with w_k = u_k - e_{a_k} and
    s_k the sign of <u, w_k> * <x, w_k> (sign of 0 counts +1).
    """
    pairs = zip(_stream_pairings(table, u, depth), _stream_pairings(table, x, depth))
    return dyadic_sum([(abs(pu) if pu * px >= 0 else -abs(pu), q, a * a)
                       for (pu, q, a), (px, _, _) in pairs if pu])


def dplus_enclosure_at_depth(
    table: ConstructionTable, x: SparseVec, u: SparseVec, depth: int
) -> Enclosure:
    """Right-derivative enclosure of the series norm at fixed depth."""
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    center = dplus_sup(x, u) + derivative_series_sum(table, x, u, depth)
    radius = sup_norm(u) * table.tail_bound(depth)
    return Enclosure.around(center, radius, radius, depth)


def dplus_norm(
    table: ConstructionTable,
    x: SparseVec,
    u: SparseVec,
    precision_bits: int,
) -> Enclosure:
    """Right derivative of the series norm, width < 2^(-precision_bits).
    A width target w > 0 is met at ``vectors.bits_for_target(w)`` bits."""
    depth = _minimal_depth(table, 2 * sup_norm(u), precision_bits)
    return dplus_enclosure_at_depth(table, x, u, depth)


def dminus_norm(
    table: ConstructionTable,
    x: SparseVec,
    u: SparseVec,
    precision_bits: int,
) -> Enclosure:
    """Left derivative: the reflection -d_plus(x; -u), interval-wise."""
    return -dplus_norm(table, x, -u, precision_bits)

