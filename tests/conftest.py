import pytest

from proxinorm.construction import canonical_table
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
