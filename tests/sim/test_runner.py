"""Tests for the multi-trial runner and sweep summaries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ant import AntAlgorithm
from repro.env.critical import lambda_for_critical_value
from repro.env.demands import uniform_demands
from repro.env.feedback import SigmoidFeedback
from repro.exceptions import ConfigurationError
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


class TestBatchedDispatch:
    """``run_trials(batch=...)`` chunks trials through the batched engine."""

    def test_batch_bit_identical_to_serial_with_partial_chunk(self):
        # 7 trials at batch=3 exercises full chunks AND the trailing
        # partial one; every trial must match the serial path exactly.
        kwargs = dict(rounds=80, trials=7, seed=3)
        batched = run_trials(_counting_factory, batch=3, **kwargs)
        serial = run_trials(_counting_factory, batch=0, **kwargs)
        np.testing.assert_array_equal(batched.average_regrets, serial.average_regrets)
        for rb, rs in zip(batched.results, serial.results):
            assert rb.metrics.cumulative_regret == rs.metrics.cumulative_regret
            np.testing.assert_array_equal(rb.metrics.final_loads, rs.metrics.final_loads)

    def test_batch_larger_than_trials_is_fine(self):
        s = run_trials(_counting_factory, rounds=50, trials=2, seed=0, batch=16)
        assert s.trials == 2 and len(s.results) == 2

    def test_batch_rejects_non_counting_factory(self):
        # The plain Simulator has no batched lane protocol; the engine's
        # own validation surfaces with a clear type message.
        with pytest.raises(ConfigurationError, match="CountingSimulator"):
            run_trials(_factory, rounds=10, trials=2, seed=0, batch=2)

    def test_batch_and_processes_are_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            run_trials(
                _counting_factory, rounds=10, trials=2, seed=0, batch=2, processes=2
            )

    def test_batch_must_be_nonnegative(self):
        with pytest.raises(ConfigurationError, match="batch"):
            run_trials(_counting_factory, rounds=10, trials=2, seed=0, batch=-1)

    def test_default_batches_counting_trials_sixteen_at_a_time(self, monkeypatch):
        import repro.sim.runner as runner_mod
        from repro.sim.batched import BatchedCountingSimulator

        chunks: list[int] = []

        class Recording(BatchedCountingSimulator):
            def __init__(self, simulators):
                super().__init__(simulators)
                chunks.append(self.batch)

        monkeypatch.setattr(runner_mod, "BatchedCountingSimulator", Recording)
        default = run_trials(_counting_factory, rounds=40, trials=20, seed=5)
        assert chunks == [16, 4]
        one_at_a_time = run_trials(_counting_factory, rounds=40, trials=20, seed=5, batch=0)
        assert chunks == [16, 4]
        np.testing.assert_array_equal(default.average_regrets, one_at_a_time.average_regrets)

    def test_default_batch_yields_to_processes(self):
        # parallel workers run one trial each; the default must not
        # collide with them the way an explicit batch does.
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
