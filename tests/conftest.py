import pytest

from grmjacobi import Field, GrmCode

# Every code with q^m <= 27, for the property tests.
SMALL_CODES = [
    (p, k, m)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
    for k in range(1, 5)
    for m in range(1, 5)
    if (p**k) ** m <= 27
]

_CODES: dict[tuple[int, int, int], GrmCode] = {}


def get_code(p: int, k: int, m: int) -> GrmCode:
    """Shared code instances, so each field and point list is built once
    per session."""
    key = (p, k, m)
    if key not in _CODES:
        _CODES[key] = GrmCode(Field(p, k), m)
    return _CODES[key]


@pytest.fixture
def code_3_2() -> GrmCode:
    return get_code(3, 1, 2)


@pytest.fixture
def code_2_2() -> GrmCode:
    return get_code(2, 1, 2)
