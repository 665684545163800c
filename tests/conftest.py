import pytest

from dynzeta import zeta
from dynzeta.field import field_make, ratfunc_field


@pytest.fixture(autouse=True)
def cold_evidence():
    """Every test starts with no verdict evidence kept, so a test that
    watches a certificate being built sees the cold path."""
    zeta._evidence.cache_clear()


@pytest.fixture(scope="session")
def F2():
    return field_make(2)


@pytest.fixture(scope="session")
def F3():
    return field_make(3)


@pytest.fixture(scope="session")
def F5():
    return field_make(5)


@pytest.fixture(scope="session")
def F7():
    return field_make(7)


@pytest.fixture(scope="session")
def F3u():
    return ratfunc_field(3)
