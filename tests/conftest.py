import random

import pytest

from charp.ffield import make_context


@pytest.fixture(scope="session")
def f2():
    return make_context(2)


@pytest.fixture(scope="session")
def f3():
    return make_context(3)


@pytest.fixture(scope="session")
def f4():
    return make_context(2, 2)


@pytest.fixture(scope="session")
def f5():
    return make_context(5)


@pytest.fixture
def rng():
    return random.Random(20260809)
