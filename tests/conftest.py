import pytest

from hermlat.localfield import LocalField
from hermlat.etale import EtaleAlgebra


@pytest.fixture(scope="session")
def Q2():
    return LocalField(2)


@pytest.fixture(scope="session")
def Q3():
    return LocalField(3)


@pytest.fixture(scope="session")
def Q2sqrt2(Q2):
    # e = 3
    return EtaleAlgebra.quadratic(Q2, 0, -2)


@pytest.fixture(scope="session")
def Q2i(Q2):
    # x^2 + 2x + 2, e = 2
    return EtaleAlgebra.quadratic(Q2, 2, 2)


@pytest.fixture(scope="session")
def Q3sqrt3(Q3):
    # e = 1
    return EtaleAlgebra.quadratic(Q3, 0, -3)


@pytest.fixture(scope="session")
def inert2(Q2):
    return EtaleAlgebra.quadratic(Q2, 1, 1)


@pytest.fixture(scope="session")
def inert3(Q3):
    return EtaleAlgebra.quadratic(Q3, 0, 1)


@pytest.fixture(scope="session")
def split2(Q2):
    return EtaleAlgebra.split(Q2)


@pytest.fixture(scope="session")
def split3(Q3):
    return EtaleAlgebra.split(Q3)


@pytest.fixture(scope="session")
def F4base():
    return LocalField(2, unramified_poly=[1, 1])


@pytest.fixture(scope="session")
def F4ram(F4base):
    return EtaleAlgebra.quadratic(F4base, 0, -2)


def tower_algebra(d):
    """E = K(sqrt(t)) over K = Q_2(t), t^d = 2: an Eisenstein step of degree
    d below E, so e = 2d + 1 (the benchmark's tower algebras for d = 2, 3)."""
    K = LocalField(2, eisenstein_poly=[-2] + [0] * (d - 1))
    return EtaleAlgebra.quadratic(K, 0, -K.uniformizer())


@pytest.fixture(scope="session")
def tower5():
    return tower_algebra(2)


@pytest.fixture(scope="session")
def tower7():
    return tower_algebra(3)
