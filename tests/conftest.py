import pytest
from hypothesis import settings

from randtile.substitution import (half_hex_classical, half_hex_pair,
                                   one_d_pair, solenoid_family)

# Property tests draw the same examples on every run: derandomized, with no
# example database to replay earlier failures from.  Each test's own
# @settings still fixes its max_examples and deadline.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def hh():
    return half_hex_classical()


@pytest.fixture(scope="session")
def hhp():
    return half_hex_pair()


@pytest.fixture(scope="session")
def odp():
    return one_d_pair()


@pytest.fixture(scope="session")
def sol1():
    return solenoid_family([2], 1)


@pytest.fixture(scope="session")
def sol2():
    return solenoid_family([2, 3], 2)


@pytest.fixture(scope="session")
def sol3():
    return solenoid_family([2], 3)
