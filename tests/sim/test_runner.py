"""Tests for the multi-trial runner and sweep summaries."""

from __future__ import annotations

import numpy as np
import pytest

import repro.sim.runner as runner_mod
from repro.core.ant import AntAlgorithm
from repro.env.critical import lambda_for_critical_value
from repro.env.demands import uniform_demands
from repro.env.feedback import SigmoidFeedback
from repro.exceptions import ConfigurationError
from repro.sim.batched import BatchedCountingSimulator
from repro.sim.counting import CountingSimulator
from repro.sim.engine import Simulator
from repro.sim.runner import SweepResult, run_trials

_DEMAND = uniform_demands(n=1000, k=2)
_LAM = lambda_for_critical_value(_DEMAND, gamma_star=0.05)


def _factory(seed):
    return Simulator(AntAlgorithm(gamma=0.05), _DEMAND, SigmoidFeedback(_LAM), seed=seed)


def _counting_factory(seed):
    return CountingSimulator(
        AntAlgorithm(gamma=0.05), _DEMAND, SigmoidFeedback(_LAM), seed=seed
    )


def _factory_for_gamma(gamma):
    def make(seed):
        return Simulator(
            AntAlgorithm(gamma=gamma), _DEMAND, SigmoidFeedback(_LAM), seed=seed
        )

    return make


class TestRunTrials:
    def test_summary_shape(self):
        s = run_trials(_factory, rounds=100, trials=3, seed=0)
        assert s.trials == 3
        assert s.average_regrets.shape == (3,)
        assert len(s.results) == 3

    def test_closeness_computed_when_given(self):
        s = run_trials(
            _factory, rounds=100, trials=2, seed=0,
            gamma_star=0.05, total_demand=_DEMAND.total,
        )
        assert s.closenesses is not None
        assert s.mean_closeness > 0

    def test_closeness_unavailable_raises(self):
        s = run_trials(_factory, rounds=50, trials=2, seed=0)
        with pytest.raises(ConfigurationError):
            _ = s.mean_closeness

    def test_reproducible(self):
        a = run_trials(_factory, rounds=60, trials=2, seed=4).average_regrets
        b = run_trials(_factory, rounds=60, trials=2, seed=4).average_regrets
        np.testing.assert_array_equal(a, b)

    def test_trials_independent(self):
        s = run_trials(_factory, rounds=61, trials=3, seed=0)
        assert len(set(s.average_regrets.tolist())) > 1

    def test_keep_results_false(self):
        s = run_trials(_factory, rounds=50, trials=2, seed=0, keep_results=False)
        assert s.results == []

    def test_describe(self):
        s = run_trials(_factory, rounds=50, trials=2, seed=0, label="abc")
        assert "abc" in s.describe()

    def test_multiprocess(self):
        s = run_trials(_factory, rounds=60, trials=2, seed=4, processes=2)
        b = run_trials(_factory, rounds=60, trials=2, seed=4)
        np.testing.assert_allclose(s.average_regrets, b.average_regrets)

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError):
            run_trials(_factory, rounds=10, trials=0)


def _trial_seeds(seed: int, trials: int) -> list[int]:
    """Trial seeds exactly as ``run_trials(seed=seed)`` derives them."""
    root = np.random.SeedSequence(seed)
    return [int(s.generate_state(1)[0]) for s in root.spawn(trials)]


def _one_lane_runs(factory, rounds: int, trials: int, seed: int):
    """Every trial run alone, a one-lane batch each."""
    return [factory(s).run(rounds) for s in _trial_seeds(seed, trials)]


class LaneSpy:
    """Records the lane count of every chunk ``run_trials`` builds."""

    def __init__(self, monkeypatch) -> None:
        self.chunks: list[int] = []
        spy = self

        class Recording(BatchedCountingSimulator):
            def __init__(self, simulators) -> None:
                super().__init__(simulators)
                spy.chunks.append(self.batch)

        monkeypatch.setattr(runner_mod, "BatchedCountingSimulator", Recording)


class TestBatchedDispatch:
    """``run_trials`` chunks counting trials through the batched engine."""

    def test_batch_bit_identical_to_serial_with_partial_chunk(self, monkeypatch):
        # 7 trials in chunks of 3 exercise full chunks AND the trailing
        # partial one; every trial must match its one-lane run exactly.
        monkeypatch.setattr(runner_mod, "DEFAULT_BATCH", 3)
        spy = LaneSpy(monkeypatch)
        batched = run_trials(_counting_factory, rounds=80, trials=7, seed=3)
        assert spy.chunks == [3, 3, 1]
        alone = _one_lane_runs(_counting_factory, 80, 7, 3)
        assert len(batched.results) == len(alone) == 7
        for rb, rs in zip(batched.results, alone):
            assert rb.metrics.cumulative_regret == rs.metrics.cumulative_regret
            assert rb.metrics.average_regret == rs.metrics.average_regret
            np.testing.assert_array_equal(rb.metrics.final_loads, rs.metrics.final_loads)

    def test_batch_larger_than_trials_is_fine(self, monkeypatch):
        spy = LaneSpy(monkeypatch)
        s = run_trials(_counting_factory, rounds=50, trials=2, seed=0)
        assert spy.chunks == [2]
        assert s.trials == 2 and len(s.results) == 2

    def test_batch_rejects_non_counting_factory(self, monkeypatch):
        # The plain Simulator has no batched lane protocol: the runner
        # runs its trials one at a time and never builds a batch of them.
        spy = LaneSpy(monkeypatch)
        s = run_trials(_factory, rounds=30, trials=3, seed=0)
        assert spy.chunks == []
        alone = [r.metrics.average_regret for r in _one_lane_runs(_factory, 30, 3, 0)]
        np.testing.assert_array_equal(s.average_regrets, alone)
        with pytest.raises(ConfigurationError, match="CountingSimulator"):
            BatchedCountingSimulator([_factory(0), _factory(1)])

    def test_batch_keyword_is_gone(self):
        # The runner alone picks lane counts; a stray ``batch=`` reaches
        # the engine's run() as an unknown keyword and fails loudly.
        for factory in (_counting_factory, _factory):
            with pytest.raises(TypeError, match="batch"):
                run_trials(factory, rounds=10, trials=2, seed=0, batch=2)

    def test_default_batches_counting_trials_sixteen_at_a_time(self, monkeypatch):
        spy = LaneSpy(monkeypatch)
        default = run_trials(_counting_factory, rounds=40, trials=20, seed=5)
        assert spy.chunks == [16, 4]
        alone = [r.metrics.average_regret for r in _one_lane_runs(_counting_factory, 40, 20, 5)]
        np.testing.assert_array_equal(default.average_regrets, alone)

    def test_default_batch_yields_to_processes(self):
        # parallel workers run one trial each, never a batch of them.
        parallel = run_trials(_counting_factory, rounds=40, trials=3, seed=2, processes=2)
        batched = run_trials(_counting_factory, rounds=40, trials=3, seed=2)
        np.testing.assert_array_equal(parallel.average_regrets, batched.average_regrets)


class TestPicklableProbe:
    """Unpicklable factories fail fast with a registry-factory hint, not
    deep inside the worker pool."""

    def test_lambda_factory_raises_configuration_error(self):
        factory = lambda seed: _counting_factory(seed)  # noqa: E731
        with pytest.raises(
            ConfigurationError, match="picklable simulator factory"
        ) as excinfo:
            run_trials(factory, rounds=10, trials=2, seed=0, processes=2)
        # The message points at the workarounds, including the spec route.
        assert "module-level" in str(excinfo.value)
        assert "ScenarioFactory" in str(excinfo.value)

    def test_closure_over_live_components_raises_too(self):
        demand = uniform_demands(n=1000, k=2)

        def factory(seed):
            return _counting_factory(seed) if demand else None

        with pytest.raises(ConfigurationError, match="picklable"):
            run_trials(factory, rounds=10, trials=2, seed=0, processes=2)

    def test_module_level_factory_passes_the_probe(self):
        s = run_trials(_counting_factory, rounds=30, trials=2, seed=1, processes=2)
        assert s.trials == 2


class TestSweep:
    def test_series_and_table(self):
        values = [0.03, 0.0625]
        summaries = [
            run_trials(
                _factory_for_gamma(gamma),
                200,
                2,
                seed=0,
                label=f"gamma={gamma}",
                gamma_star=0.05,
                total_demand=_DEMAND.total,
                params={"gamma": gamma},
            )
            for gamma in values
        ]
        result = SweepResult("gamma", values, summaries)
        assert result.series().shape == (2,)
        assert "gamma" in result.table()
        assert result.summaries[0].params == {"gamma": 0.03}
