"""Independent exact oracles for the benchmark's output checks.

Nothing here calls the package's summation, pairing or determinant code:
pairings are recomputed from the vectors' entries, series terms are
summed one by one as plain ``Fraction`` values, and determinants come
from row reduction over ``Fraction``.  Only the construction stream
itself (the (vector, tag) pairs, which define the norm) is read from the
package.  Each series term is scaled by 2^(a_K^2), the weight of the last
term, so every addition has a small denominator.  Values of that size
are kept as unreduced ``(numerator, denominator)`` pairs and compared by
cross-multiplication, which avoids gcds of numbers of 2^17 bits.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

Ratio = Tuple[int, int]  # numerator, denominator > 0; not reduced


def ratio(value: Fraction) -> Ratio:
    return value.numerator, value.denominator


def add(p: Ratio, q: Ratio) -> Ratio:
    return p[0] * q[1] + q[0] * p[1], p[1] * q[1]


def scale(p: Ratio, factor: int) -> Ratio:
    return p[0] * factor, p[1]


def equal(p: Ratio, q: Ratio) -> bool:
    return p[0] * q[1] == q[0] * p[1]


def less(p: Ratio, q: Ratio) -> bool:
    return p[0] * q[1] < q[0] * p[1]


def _pair(a, b) -> Fraction:
    entries = dict(b.items())
    total = Fraction(0)
    for i, value in a.items():
        if i in entries:
            total += value * entries[i]
    return total


def _stream_pairing(vec, u, a) -> Fraction:
    """<vec, u_k - e_{a_k}> from the entries."""
    return _pair(vec, u) - dict(vec.items()).get(a, Fraction(0))


def norm_series(table, x, depth: int) -> Ratio:
    """Sum over k <= depth of 2^(-a_k^2) |<x, u_k - e_{a_k}>|, term by term."""
    shift = table.tag(depth) ** 2
    total = Fraction(0)
    for k in range(1, depth + 1):
        u, a = table.entry(k)
        total += abs(_stream_pairing(x, u, a)) * (1 << (shift - a * a))
    return total.numerator, total.denominator << shift


def derivative_series(table, x, u_dir, depth: int) -> Ratio:
    """Sum over k <= depth of 2^(-a_k^2) s_k |<u, w_k>|, with w_k = u_k - e_{a_k}
    and s_k the sign of <u, w_k> <x, w_k> (the sign of 0 counts as +1)."""
    shift = table.tag(depth) ** 2
    total = Fraction(0)
    for k in range(1, depth + 1):
        u, a = table.entry(k)
        pu = _stream_pairing(u_dir, u, a)
        px = _stream_pairing(x, u, a)
        term = abs(pu) if pu * px >= 0 else -abs(pu)
        total += term * (1 << (shift - a * a))
    return total.numerator, total.denominator << shift


def sup_norm(x) -> Fraction:
    return max((abs(v) for _, v in x.items()), default=Fraction(0))


def sup_derivative(x, u) -> Fraction:
    """Right derivative of the sup norm at x along u: the largest
    sgn(x_i) u_i over the coordinates where |x_i| is maximal."""
    entries = dict(x.items())
    if not entries:
        return sup_norm(u)
    top = sup_norm(x)
    u_entries = dict(u.items())
    return max(
        (u_entries.get(i, Fraction(0)) * (1 if v > 0 else -1))
        for i, v in entries.items()
        if abs(v) == top
    )


def predicted_sign_rows(n: int) -> List[List[int]]:
    """Row r (1-based, r = 1..n+1) holds r entries -1 followed by +1s."""
    return [[-1] * r + [1] * (n + 1 - r) for r in range(1, n + 2)]


def rref_determinant(rows: Sequence[Sequence[int]]) -> Fraction:
    """Determinant by row reduction over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(col + 1, len(m)):
            f = m[r][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det
