"""Shared fixtures, and the exact oracles that more than one test module
checks against (``from conftest import ...``)."""

from fractions import Fraction

import pytest

from proxinorm.approxlin import REPORT_DEPTH, build_report
from proxinorm.construction import canonical_table
from proxinorm.descent import Subspace, build_probes
from proxinorm.vectors import SparseVec


@pytest.fixture(scope="session")
def table():
    """One shared canonical table; it is append-only, so sharing is safe."""
    return canonical_table()


@pytest.fixture(scope="session")
def criterion6_starts():
    """The ten starting points that acceptance criterion 6 draws (seed 6)."""
    return [
        SparseVec.from_json(obj)
        for obj in (
            {"1": "2/5", "2": "1/6", "3": "-4/5", "7": "-1/4", "8": "-8/3"},
            {"1": "3/2", "2": "1/3", "4": "1/3", "6": "-4/3", "8": "-5/4"},
            {"1": "-2", "2": "-5", "3": "-5/6", "4": "-2/3", "7": "-2/3"},
            {"1": "-3/2", "2": "1", "6": "1"},
            {"1": "-2", "2": "-1", "5": "5/2", "8": "3"},
            {"1": "7/6", "2": "-2", "7": "-1/3"},
            {"1": "-8", "2": "-3", "3": "-1/2", "4": "1/4", "6": "1"},
            {"1": "-3/2", "2": "4/5", "9": "-4/3"},
            {"1": "-7", "2": "-3/2", "4": "-1", "7": "-2"},
            {"1": "-1/4", "2": "-2/3", "5": "-3/5", "8": "1"},
        )
    ]


@pytest.fixture(scope="session")
def criterion6_reports(table, criterion6_starts):
    """The first-step reports of the criterion-6 descent on ker(e1, e2)."""
    H = Subspace([SparseVec.unit(1), SparseVec.unit(2)])
    return [build_report(table, x0, build_probes(table, H, x0), REPORT_DEPTH) for x0 in criterion6_starts]


def rref_determinant(rows):
    """Independent determinant oracle: exact row reduction over Fraction."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def interval_distance(alo, ahi, blo, bhi):
    """The gap between [alo, ahi] and [blo, bhi]; 0 when they meet."""
    return max(Fraction(0), alo - bhi, blo - ahi)
