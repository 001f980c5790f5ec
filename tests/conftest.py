import pytest

from randtile.substitution import (half_hex_classical, half_hex_pair,
                                   one_d_pair, solenoid_family)


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
