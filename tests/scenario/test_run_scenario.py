"""Tests for run_scenario / sweep_scenario / the scenario CLI."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.scenario import ScenarioFactory, ScenarioSpec, run_scenario, sweep_scenario
from repro.sim.counting import CountingSimulator
from repro.sim.engine import SimulationResult, Simulator
from repro.sim.runner import TrialSummary
from repro.sim.sequential import SequentialSimulator


def counting_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        algorithm={"name": "ant", "params": {"gamma": 0.025}},
        demand={"name": "uniform", "params": {"n": 2000, "k": 4}},
        feedback={"name": "calibrated_sigmoid", "params": {"gamma_star": 0.01}},
        engine={"name": "counting"},
        rounds=300,
        seed=11,
        gamma_star=0.01,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestBuild:
    def test_engine_selection(self):
        assert isinstance(counting_spec().build(), CountingSimulator)
        agent = counting_spec(engine={"name": "agent"}, gamma_star=None)
        assert isinstance(agent.build(), Simulator)
        seq = counting_spec(
            algorithm={"name": "trivial"}, engine={"name": "sequential"}
        )
        assert isinstance(seq.build(), SequentialSimulator)

    def test_engine_algorithm_mismatch_surfaces(self):
        spec = counting_spec(algorithm={"name": "precise_adversarial",
                                        "params": {"gamma": 0.02, "eps": 0.5}})
        with pytest.raises(ConfigurationError, match="CountingSimulator supports"):
            spec.build()

    def test_seed_override(self):
        sim = counting_spec().build(seed=99)
        assert sim is not None


class TestRunScenario:
    def test_single_trial_returns_simulation_result(self):
        result = run_scenario(counting_spec())
        assert isinstance(result, SimulationResult)
        assert result.rounds == 300

    def test_single_trial_deterministic(self):
        a = run_scenario(counting_spec())
        b = run_scenario(counting_spec())
        assert a.metrics.average_regret == b.metrics.average_regret
        assert np.array_equal(a.final_loads, b.final_loads)

    def test_rounds_and_run_overrides(self):
        result = run_scenario(counting_spec(), rounds=50, burn_in=10)
        assert result.rounds == 50

    def test_multi_trial_returns_summary(self):
        summary = run_scenario(counting_spec(), trials=3)
        assert isinstance(summary, TrialSummary)
        assert summary.trials == 3
        assert summary.label == "ant@counting"
        assert summary.closenesses is not None  # spec.gamma_star flows through

    def test_parallel_bit_identical_to_serial(self):
        serial = run_scenario(counting_spec(), trials=4, parallel=0)
        parallel = run_scenario(counting_spec(), trials=4, parallel=2)
        assert np.array_equal(serial.average_regrets, parallel.average_regrets)
        assert np.array_equal(serial.closenesses, parallel.closenesses)
        assert np.array_equal(serial.max_abs_deficits, parallel.max_abs_deficits)
        assert np.array_equal(serial.switches_per_round, parallel.switches_per_round)

    def test_pickled_spec_survives_process_pool(self):
        spec = counting_spec()
        revived = pickle.loads(pickle.dumps(spec))
        assert revived == spec
        # parallel=2 ships the ScenarioFactory through ProcessPoolExecutor.
        summary = run_scenario(revived, trials=2, parallel=2, rounds=100)
        assert summary.trials == 2

    def test_factory_builds_fresh_simulators(self):
        factory = ScenarioFactory(counting_spec())
        a, b = factory(1), factory(1)
        assert a is not b
        assert isinstance(a, CountingSimulator)

    def test_agent_engine_scenario_runs(self):
        result = run_scenario(counting_spec(engine={"name": "agent"}), rounds=50)
        assert isinstance(result, SimulationResult)

    def test_label_override(self):
        summary = run_scenario(counting_spec(), trials=2, label="custom")
        assert summary.label == "custom"

    def test_invalid_trials(self):
        with pytest.raises(ConfigurationError):
            run_scenario(counting_spec(), trials=0)

    def test_parallel_requires_multiple_trials(self):
        with pytest.raises(ConfigurationError, match="trials > 1"):
            run_scenario(counting_spec(), parallel=2)

    def test_negative_seed_override_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            run_scenario(counting_spec(), trials=2, seed=-1)


class TestBatchedEngineThreading:
    """The ``counting_batched`` spec engine and the ``batch=`` override."""

    def _batched_spec(self, **engine_params):
        params = {"batch": 4, **engine_params}
        return counting_spec(engine={"name": "counting_batched", "params": params})

    def test_spec_builds_a_plain_counting_simulator(self):
        # batch/backend are orchestration knobs consumed by the runners;
        # a single build is just the serial engine.
        assert isinstance(self._batched_spec().build(), CountingSimulator)

    def test_registered_and_population_aware(self):
        from repro.scenario.engines import (
            BATCHED_ENGINES,
            POPULATION_AWARE_ENGINES,
            available_engines,
        )

        assert "counting_batched" in available_engines()
        assert "counting_batched" in POPULATION_AWARE_ENGINES
        assert "counting_batched" in BATCHED_ENGINES

    def test_run_scenario_bit_identical_to_serial_engine(self):
        batched = run_scenario(self._batched_spec(), trials=6, rounds=120)
        serial = run_scenario(counting_spec(), trials=6, rounds=120)
        assert np.array_equal(batched.average_regrets, serial.average_regrets)
        assert np.array_equal(batched.closenesses, serial.closenesses)
        assert np.array_equal(batched.max_abs_deficits, serial.max_abs_deficits)

    def test_batch_zero_override_forces_the_serial_path(self):
        a = run_scenario(self._batched_spec(), trials=4, rounds=100, batch=0)
        b = run_scenario(self._batched_spec(), trials=4, rounds=100)
        assert np.array_equal(a.average_regrets, b.average_regrets)

    def test_explicit_batch_on_a_serial_counting_spec(self):
        a = run_scenario(counting_spec(), trials=4, rounds=100, batch=2)
        b = run_scenario(counting_spec(), trials=4, rounds=100)
        assert np.array_equal(a.average_regrets, b.average_regrets)

    def test_parallel_suppresses_the_spec_default_batch(self):
        # parallel workers and batched lanes are mutually exclusive; the
        # spec's default batch must yield rather than raise.
        summary = run_scenario(self._batched_spec(), trials=2, rounds=60, parallel=2)
        assert summary.trials == 2

    def test_single_trial_returns_simulation_result(self):
        result = run_scenario(self._batched_spec(), rounds=80)
        assert isinstance(result, SimulationResult)

    def test_engine_param_validation(self):
        with pytest.raises(ConfigurationError, match="batch"):
            self._batched_spec(batch=0).build()
        with pytest.raises(ConfigurationError, match="unknown array backend"):
            self._batched_spec(backend="jax").build()

    def test_sweep_scenario_batched_matches_forced_serial(self):
        spec = self._batched_spec()
        kwargs = dict(trials=2, rounds=80)
        a = sweep_scenario(spec, "algorithm.gamma", [0.02, 0.04], **kwargs)
        b = sweep_scenario(spec, "algorithm.gamma", [0.02, 0.04], batch=0, **kwargs)
        np.testing.assert_array_equal(a.series(), b.series())


class TestSweepScenario:
    def test_sweep_component_param(self):
        result = sweep_scenario(
            counting_spec(), "algorithm.gamma", [0.02, 0.04], trials=2, rounds=100
        )
        assert result.parameter == "algorithm.gamma"
        assert [s.params["algorithm.gamma"] for s in result.summaries] == [0.02, 0.04]
        assert all(s.trials == 2 for s in result.summaries)
        assert all(s.closenesses is not None for s in result.summaries)

    def test_sweep_invalid_value_surfaces(self):
        with pytest.raises(ConfigurationError):
            sweep_scenario(counting_spec(), "algorithm.gamma", [5.0], trials=1, rounds=10)

    def test_sweep_rejects_top_level_fields(self):
        # The trial runner owns rounds and seed derivation; sweeping them
        # would silently run every point identically.
        for parameter in ("rounds", "seed"):
            with pytest.raises(ConfigurationError, match="component params"):
                sweep_scenario(counting_spec(), parameter, [1, 2], trials=1, rounds=10)


class TestScenarioCli:
    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(counting_spec().to_json(), encoding="utf-8")
        return str(path)

    def test_run_single(self, spec_file, capsys):
        from repro.experiments.cli import main

        assert main(["scenario", "run", spec_file, "--rounds", "50"]) == 0
        out = capsys.readouterr().out
        assert "ant@counting" in out and "R(t)/t" in out

    def test_run_trials(self, spec_file, capsys):
        from repro.experiments.cli import main

        assert main(["scenario", "run", spec_file, "--rounds", "50", "--trials", "2"]) == 0
        assert "+/-" in capsys.readouterr().out

    def test_run_with_batch_flag(self, spec_file, capsys):
        from repro.experiments.cli import main
        from repro.obs import FakeClock, use_clock

        # The output ends with "(scenario took {dt:.1f}s)": a fake clock
        # pins dt, so the whole output, timing line included, compares.
        args = ["scenario", "run", spec_file, "--rounds", "50", "--trials", "4"]
        with use_clock(FakeClock()):
            assert main([*args, "--batch", "2"]) == 0
        batched = capsys.readouterr().out
        with use_clock(FakeClock()):
            assert main(args) == 0
        assert batched == capsys.readouterr().out  # same numbers either way

    def test_show_round_trips(self, spec_file, capsys):
        from repro.experiments.cli import main

        assert main(["scenario", "show", spec_file]) == 0
        shown = capsys.readouterr().out
        assert ScenarioSpec.from_json(shown) == counting_spec()

    def test_components_lists_registries(self, capsys):
        from repro.experiments.cli import main

        assert main(["scenario", "components"]) == 0
        out = capsys.readouterr().out
        for name in ("ant", "sigmoid", "uniform", "static", "counting"):
            assert name in out

    def test_bad_spec_file_raises(self, tmp_path):
        from repro.experiments.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"algorithm": {"name": "nope"}}', encoding="utf-8")
        with pytest.raises(ConfigurationError):
            main(["scenario", "run", str(bad)])


class TestSweepCli:
    @pytest.fixture
    def spec_file(self, tmp_path):
        spec = counting_spec(
            feedback={"name": "exact"}, gamma_star=None, rounds=100
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        return str(path)

    def _sweep(self, spec_file, tmp_path, *extra):
        from repro.experiments.cli import main

        return main(
            [
                "scenario",
                "sweep",
                spec_file,
                "--param",
                "algorithm.gamma",
                "--values",
                "0.02,0.04",
                "--trials",
                "2",
                "--store",
                str(tmp_path / "store"),
                *extra,
            ]
        )

    def test_sweep_runs_and_prints_table(self, spec_file, tmp_path, capsys):
        assert self._sweep(spec_file, tmp_path) == 0
        out = capsys.readouterr().out
        assert "algorithm.gamma" in out and "R(t)/t" in out
        assert "[ran]" in out

    def test_interrupt_resume_out_files_are_byte_identical(self, spec_file, tmp_path, capsys):
        from repro.experiments.cli import SWEEP_INTERRUPTED_EXIT

        code = self._sweep(spec_file, tmp_path, "--max-points", "1")
        assert code == SWEEP_INTERRUPTED_EXIT
        assert "interrupted" in capsys.readouterr().out
        out_a = tmp_path / "a.json"
        assert self._sweep(spec_file, tmp_path, "--resume", "--out", str(out_a)) == 0
        assert "[cached]" in capsys.readouterr().out
        # An uninterrupted sweep into a different store: same bytes out.
        from repro.experiments.cli import main

        out_b = tmp_path / "b.json"
        assert (
            main(
                [
                    "scenario",
                    "sweep",
                    spec_file,
                    "--param",
                    "algorithm.gamma",
                    "--values",
                    "0.02,0.04",
                    "--trials",
                    "2",
                    "--store",
                    str(tmp_path / "store2"),
                    "--out",
                    str(out_b),
                ]
            )
            == 0
        )
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_values_parse_json_per_item(self):
        from repro.experiments.cli import _parse_values

        assert _parse_values("0.02, 3,true") == [0.02, 3, True]
        assert _parse_values("powerlaw,lognormal") == ["powerlaw", "lognormal"]
        # A whole-string JSON array is taken verbatim (list-valued params).
        assert _parse_values("[[1,2],[3,4]]") == [[1, 2], [3, 4]]
        assert _parse_values("[0.02, 0.04]") == [0.02, 0.04]


class TestStoreCli:
    def test_ls_info_gc(self, tmp_path, capsys):
        from repro.experiments.cli import main
        from repro.store import ResultStore

        root = tmp_path / "store"
        store = ResultStore(root)
        store.write_record(
            "ab" * 32,
            {"average_regrets": np.array([1.0])},
            {"kind": "sweep_point", "label": "x", "parameter": "p", "value": 1,
             "trials": 2, "rounds": 10},
        )
        assert main(["store", "ls", str(root)]) == 0
        out = capsys.readouterr().out
        assert "1 record(s)" in out and "p=1" in out
        assert main(["store", "info", str(root)]) == 0
        assert '"records": 1' in capsys.readouterr().out
        assert main(["store", "gc", str(root)]) == 0
        assert "gc removed 0" in capsys.readouterr().out


class TestProcessJoinCache:
    """run_scenario / sweep_scenario reading every trial and sweep point
    through the process's join-distribution store."""

    def _binary_spec(self) -> ScenarioSpec:
        return counting_spec(feedback={"name": "exact"}, gamma_star=None)

    def test_run_scenario_trials_share_the_store(self, monkeypatch):
        from tests.sim.test_pi_cache import KernelCallCounter

        import repro.sim.counting as counting_mod

        counter = KernelCallCounter(monkeypatch)
        summary = run_scenario(self._binary_spec(), trials=3, batch=0)
        assert summary.trials == 3
        # Three trials run one at a time, yet across all of them the
        # kernel ran once per distinct signature, each result stored.
        assert counter.calls == len(set(counter.keys)) == len(counting_mod._STORE.entries) > 0

    def test_single_trial_fills_the_store(self):
        import repro.sim.counting as counting_mod

        result = run_scenario(self._binary_spec())
        assert isinstance(result, SimulationResult)
        assert len(counting_mod._STORE.entries) > 0

    def test_parallel_trials_on_a_warm_store(self):
        spec = self._binary_spec()
        serial = run_scenario(spec, trials=4)  # warms this process's store
        # Workers read their own store (a forked worker inherits this
        # one's entries); either way the statistics stay bit-identical.
        parallel = run_scenario(spec, trials=4, parallel=2)
        assert np.array_equal(serial.average_regrets, parallel.average_regrets)
        assert np.array_equal(serial.max_abs_deficits, parallel.max_abs_deficits)
        assert np.array_equal(serial.switches_per_round, parallel.switches_per_round)

    def test_run_scenario_bit_identical_cold_and_warm(self):
        spec = self._binary_spec()
        cold = run_scenario(spec, trials=3)
        warm = run_scenario(spec, trials=3)
        assert np.array_equal(cold.average_regrets, warm.average_regrets)
        assert np.array_equal(cold.max_abs_deficits, warm.max_abs_deficits)
        assert np.array_equal(cold.switches_per_round, warm.switches_per_round)

    def test_sweep_points_share_the_store(self, monkeypatch):
        from tests.sim.test_pi_cache import KernelCallCounter

        spec = self._binary_spec()
        values = [0.02, 0.025]
        counter = KernelCallCounter(monkeypatch)
        sweep_scenario(spec, "algorithm.gamma", values, trials=2, rounds=150)
        # Across both points and all their trials, the kernel ran once
        # per distinct signature.
        assert 0 < counter.calls == len(set(counter.keys))

    def test_warm_sweep_bit_identical_to_cold(self, monkeypatch):
        from tests.sim.test_pi_cache import KernelCallCounter

        spec = self._binary_spec()
        values = [0.02, 0.025]
        counter = KernelCallCounter(monkeypatch)
        cold = sweep_scenario(spec, "algorithm.gamma", values, trials=2, rounds=150)
        calls = counter.calls
        assert calls > 0
        warm = sweep_scenario(spec, "algorithm.gamma", values, trials=2, rounds=150)
        assert counter.calls == calls  # the warm sweep ran no kernel
        for a, b in zip(cold.summaries, warm.summaries):
            assert np.array_equal(a.average_regrets, b.average_regrets)
            assert np.array_equal(a.max_abs_deficits, b.max_abs_deficits)
