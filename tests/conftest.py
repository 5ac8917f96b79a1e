"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Attribute, Database, Domain, Policy


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a long-running test (deselect with -m 'not slow')"
    )


@pytest.fixture(autouse=True)
def _reset_obs():
    """Observability state is process-global; never let one test's
    ``obs.configure`` leak into the next."""
    yield
    from repro import obs

    obs.configure(metrics=False, tracing=False)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_domain():
    """A 3-value ordered domain."""
    return Domain.integers("v", 3)


@pytest.fixture
def small_ordered_domain():
    """A 10-value ordered domain."""
    return Domain.integers("v", 10)


@pytest.fixture
def grid_domain():
    """A 4x3 integer grid."""
    return Domain.grid([4, 3])


@pytest.fixture
def abc_domain():
    """The paper's Example 8.1 domain: A1={a1,a2} x A2={b1,b2} x A3={c1,c2,c3}."""
    return Domain(
        [
            Attribute("A1", ["a1", "a2"]),
            Attribute("A2", ["b1", "b2"]),
            Attribute("A3", ["c1", "c2", "c3"]),
        ]
    )


@pytest.fixture
def small_db(small_ordered_domain, rng):
    return Database.from_indices(
        small_ordered_domain, rng.integers(0, 10, size=200)
    )


def make_db(domain, indices):
    return Database.from_indices(domain, indices)
