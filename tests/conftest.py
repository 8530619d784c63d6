import pytest

from tilingspectra import corpus


@pytest.fixture(scope="session")
def systems():
    return {name: corpus.load(name) for name in corpus.NAMES}


@pytest.fixture(scope="session")
def fib(systems):
    return systems["fibonacci"]


@pytest.fixture(scope="session")
def tm(systems):
    return systems["tm"]


@pytest.fixture(scope="session")
def np26(systems):
    return systems["np26"]


@pytest.fixture(scope="session")
def chair(systems):
    return systems["chair"]


@pytest.fixture(scope="session")
def grid2(systems):
    return systems["grid2"]
