"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_configure(config):
    # addopts applies '-m "not slow"' so the default tier stays fast, but
    # a test explicitly selected by node id (path::test) should always
    # run: drop the addopts default when every positional arg names one
    # and the user gave no -m/--markexpr of their own on the command line.
    explicit_m = any(
        a.startswith("--markexpr") or (a.startswith("-m") and not a.startswith("--"))
        for a in config.invocation_params.args
    )
    args = config.args
    if not explicit_m and args and all("::" in a for a in args):
        config.option.markexpr = ""

from repro.core.ant import AntAlgorithm
from repro.env.critical import lambda_for_critical_value
from repro.env.demands import DemandVector, uniform_demands
from repro.env.feedback import SigmoidFeedback
from repro.sim.counting import clear_join_cache
from repro.store import records as records_mod


@pytest.fixture(autouse=True)
def cold_process_stores():
    """Start every test from an empty process join-distribution store and
    payload memo, so kernel-call, cache-hit and decode counts do not
    depend on which tests ran before."""
    clear_join_cache()
    records_mod._PAYLOADS.clear()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_demand() -> DemandVector:
    """2000 ants, 4 tasks of demand 250 — the standard small test colony."""
    return uniform_demands(n=2000, k=4)


@pytest.fixture
def stable_demand() -> DemandVector:
    """8000 ants, 4 tasks of demand 1000 — large enough that Algorithm
    Ant's resting band is non-empty at gamma = 2.5 * gamma* = 0.025."""
    return uniform_demands(n=8000, k=4)


@pytest.fixture
def gamma_star() -> float:
    return 0.01


@pytest.fixture
def sigmoid(stable_demand, gamma_star) -> SigmoidFeedback:
    lam = lambda_for_critical_value(stable_demand, gamma_star=gamma_star)
    return SigmoidFeedback(lam)


@pytest.fixture
def ant() -> AntAlgorithm:
    return AntAlgorithm(gamma=0.025)
