import os

import pytest

from sl2tilings import (
    FormalParameters,
    pqrs_tiling,
    PqrsParams,
    unit_tiling,
    wildest_integer_tiling,
    z36_tiling,
)


@pytest.fixture(scope="session")
def unit():
    return unit_tiling()


@pytest.fixture(scope="session")
def wildest():
    return wildest_integer_tiling()


@pytest.fixture(scope="session")
def wildest_formal():
    return wildest_integer_tiling(FormalParameters())


@pytest.fixture(scope="session")
def z36():
    return z36_tiling()


@pytest.fixture(scope="session")
def pqrs3243():
    return pqrs_tiling(PqrsParams(3, 2, 4, 3))


@pytest.fixture(scope="session")
def catalog(unit, wildest, z36, pqrs3243):
    return {"unit": unit, "wildest": wildest, "z36": z36, "pqrs": pqrs3243}


@pytest.fixture(autouse=True)
def at_most_two_cpus(monkeypatch):
    """A search forks one worker fewer than min(parts, CPUs): on any machine
    no test starts more than one, unless it sets the CPU count itself."""
    cpus = os.cpu_count()
    monkeypatch.setattr(os, "cpu_count", lambda: min(cpus or 1, 2))
