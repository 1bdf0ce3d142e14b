"""Store-backed sweeps: resume bit-identity, seeding, interruption.

The acceptance contract: a sweep interrupted after >= 1 completed point
and re-run with resume produces byte-identical aggregates to an
uninterrupted run while re-executing only the missing points.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.scenario.runner as scenario_runner_mod
from repro.exceptions import ConfigurationError, SweepInterrupted
from repro.scenario import ScenarioSpec, sweep_scenario
from repro.store import ResultStore


def binary_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        algorithm={"name": "ant", "params": {"gamma": 0.025}},
        demand={"name": "uniform", "params": {"n": 2000, "k": 4}},
        feedback={"name": "exact"},
        engine={"name": "counting"},
        rounds=120,
        seed=11,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def series_stack(result) -> np.ndarray:
    return np.stack(
        [
            result.series("mean_average_regret"),
            result.series("mean_max_abs_deficit"),
            result.series("mean_switches_per_round"),
        ]
    )


class RunTrialsCounter:
    """Counts how many sweep points actually execute."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = scenario_runner_mod.run_trials

        def counted(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(scenario_runner_mod, "run_trials", counted)


VALUES = [0.02, 0.03, 0.04]


class TestResumeBitIdentity:
    def test_fresh_equals_unstored(self, tmp_path):
        stored = sweep_scenario(
            binary_spec(), "algorithm.gamma", VALUES, trials=3, store=tmp_path
        )
        plain = sweep_scenario(binary_spec(), "algorithm.gamma", VALUES, trials=3)
        assert np.array_equal(series_stack(stored), series_stack(plain))
        assert stored.resumed == [False, False, False]
        assert plain.resumed is None

    def test_resumed_serial_bit_identical(self, tmp_path, monkeypatch):
        first = sweep_scenario(
            binary_spec(), "algorithm.gamma", VALUES, trials=3, store=tmp_path
        )
        counter = RunTrialsCounter(monkeypatch)
        second = sweep_scenario(
            binary_spec(), "algorithm.gamma", VALUES, trials=3, store=tmp_path
        )
        assert counter.calls == 0  # nothing re-executed
        assert second.resumed == [True, True, True]
        assert np.array_equal(series_stack(first), series_stack(second))
        for a, b in zip(first.summaries, second.summaries):
            assert np.array_equal(a.average_regrets, b.average_regrets)
            assert np.array_equal(a.max_abs_deficits, b.max_abs_deficits)
            assert np.array_equal(a.switches_per_round, b.switches_per_round)
            assert a.label == b.label and a.params == b.params
            assert a.trials == b.trials and a.rounds == b.rounds

    def test_interrupted_then_resumed_equals_uninterrupted(self, tmp_path, monkeypatch):
        # The acceptance-criterion scenario: interrupt after 1 completed
        # point, resume, compare byte-for-byte with a never-interrupted
        # sweep in a different store.
        with pytest.raises(SweepInterrupted, match="1 new point"):
            sweep_scenario(
                binary_spec(),
                "algorithm.gamma",
                VALUES,
                trials=3,
                store=tmp_path / "a",
                max_new_points=1,
            )
        counter = RunTrialsCounter(monkeypatch)
        resumed = sweep_scenario(
            binary_spec(), "algorithm.gamma", VALUES, trials=3, store=tmp_path / "a"
        )
        assert counter.calls == 2  # only the missing points re-executed
        assert resumed.resumed == [True, False, False]
        fresh = sweep_scenario(
            binary_spec(), "algorithm.gamma", VALUES, trials=3, store=tmp_path / "b"
        )
        assert np.array_equal(series_stack(resumed), series_stack(fresh))

    def test_resumed_parallel_bit_identical(self, tmp_path):
        serial = sweep_scenario(
            binary_spec(), "algorithm.gamma", VALUES[:2], trials=4, store=tmp_path / "a"
        )
        with pytest.raises(SweepInterrupted):
            sweep_scenario(
                binary_spec(),
                "algorithm.gamma",
                VALUES[:2],
                trials=4,
                parallel=2,
                store=tmp_path / "b",
                max_new_points=1,
            )
        resumed = sweep_scenario(
            binary_spec(),
            "algorithm.gamma",
            VALUES[:2],
            trials=4,
            parallel=2,
            store=tmp_path / "b",
        )
        assert resumed.resumed == [True, False]
        assert np.array_equal(series_stack(serial), series_stack(resumed))

    def test_closenesses_survive_the_record_roundtrip(self, tmp_path):
        spec = binary_spec(
            feedback={"name": "calibrated_sigmoid", "params": {"gamma_star": 0.01}},
            gamma_star=0.01,
        )
        first = sweep_scenario(spec, "algorithm.gamma", VALUES[:2], trials=2, store=tmp_path)
        second = sweep_scenario(spec, "algorithm.gamma", VALUES[:2], trials=2, store=tmp_path)
        assert second.resumed == [True, True]
        for a, b in zip(first.summaries, second.summaries):
            assert a.closenesses is not None
            assert np.array_equal(a.closenesses, b.closenesses)

    def test_resume_false_recomputes_and_overwrites(self, tmp_path, monkeypatch):
        sweep_scenario(binary_spec(), "algorithm.gamma", VALUES[:2], trials=2, store=tmp_path)
        counter = RunTrialsCounter(monkeypatch)
        out = sweep_scenario(
            binary_spec(),
            "algorithm.gamma",
            VALUES[:2],
            trials=2,
            store=tmp_path,
            resume=False,
        )
        assert counter.calls == 2
        assert out.resumed == [False, False]


class TestDigestKeying:
    def test_inserting_a_value_reuses_existing_points(self, tmp_path, monkeypatch):
        # The satellite fix in action: [a, c] then [a, b, c] — a and c
        # keep their seeds and records; only b executes.
        outer = sweep_scenario(
            binary_spec(), "algorithm.gamma", [0.02, 0.04], trials=3, store=tmp_path
        )
        counter = RunTrialsCounter(monkeypatch)
        full = sweep_scenario(
            binary_spec(), "algorithm.gamma", [0.02, 0.03, 0.04], trials=3, store=tmp_path
        )
        assert counter.calls == 1
        assert full.resumed == [True, False, True]
        assert full.series()[0] == outer.series()[0]
        assert full.series()[2] == outer.series()[1]

    def test_value_reorder_is_digest_stable(self, tmp_path):
        a = sweep_scenario(
            binary_spec(), "algorithm.gamma", [0.02, 0.04], trials=2, store=tmp_path
        )
        b = sweep_scenario(
            binary_spec(), "algorithm.gamma", [0.04, 0.02], trials=2, store=tmp_path
        )
        assert b.resumed == [True, True]
        assert a.series()[0] == b.series()[1] and a.series()[1] == b.series()[0]

    def test_changed_config_changes_digests(self, tmp_path):
        sweep_scenario(binary_spec(), "algorithm.gamma", [0.02], trials=2, store=tmp_path)
        for change in (
            dict(trials=3),
            dict(rounds=100),
            dict(burn_in=10),
        ):
            out = sweep_scenario(
                binary_spec(),
                "algorithm.gamma",
                [0.02],
                trials=change.get("trials", 2),
                rounds=change.get("rounds"),
                store=tmp_path,
                **({"burn_in": change["burn_in"]} if "burn_in" in change else {}),
            )
            assert out.resumed == [False], f"stale reuse under {change}"
        # A different base seed must also miss.
        out = sweep_scenario(
            binary_spec(seed=12), "algorithm.gamma", [0.02], trials=2, store=tmp_path
        )
        assert out.resumed == [False]

    def test_record_committed_under_old_numerics_reads_as_absent(self, tmp_path, monkeypatch):
        from repro.scenario.runner import sweep_point_seed
        from repro.store import NUMERICS_VERSION

        monkeypatch.setattr(scenario_runner_mod, "NUMERICS_VERSION", NUMERICS_VERSION - 1)
        old_seed = sweep_point_seed(binary_spec(), "algorithm.gamma", 0.02, 11)
        old = sweep_scenario(binary_spec(), "algorithm.gamma", [0.02], trials=2, store=tmp_path)
        monkeypatch.setattr(scenario_runner_mod, "NUMERICS_VERSION", NUMERICS_VERSION)
        counter = RunTrialsCounter(monkeypatch)
        new = sweep_scenario(binary_spec(), "algorithm.gamma", [0.02], trials=2, store=tmp_path)
        assert new.resumed == [False] and counter.calls == 1
        assert len(list(ResultStore(tmp_path).iter_records())) == 2
        # The seed root ignores the numerics version: only the digest moves.
        assert sweep_point_seed(binary_spec(), "algorithm.gamma", 0.02, 11) == old_seed
        assert np.array_equal(series_stack(old), series_stack(new))

    def test_corrupt_record_recomputed_not_crashed(self, tmp_path):
        from repro.store.records import PAYLOAD_SUFFIX

        sweep_scenario(binary_spec(), "algorithm.gamma", [0.02], trials=2, store=tmp_path)
        store = ResultStore(tmp_path)
        [(digest, _)] = list(store.iter_records())
        payload = store.record_dir(digest) / f"{digest}{PAYLOAD_SUFFIX}"
        payload.write_bytes(b"garbage")
        out = sweep_scenario(
            binary_spec(), "algorithm.gamma", [0.02], trials=2, store=tmp_path
        )
        assert out.resumed == [False]  # recovered by recomputation
        again = sweep_scenario(
            binary_spec(), "algorithm.gamma", [0.02], trials=2, store=tmp_path
        )
        assert again.resumed == [True]  # and the rewrite is healthy


class TestSeedModes:
    def test_insertion_does_not_reshuffle_existing_points(self):
        # Point seed roots derive from each point's digest, never its
        # position: inserting a value leaves every shared value's
        # results untouched, with or without a store.
        spec = binary_spec()

        def regrets(values):
            out = sweep_scenario(spec, "algorithm.gamma", values, trials=2)
            return {v: s.average_regrets.copy() for v, s in zip(values, out.summaries)}

        outer = regrets([0.02, 0.04])
        full = regrets([0.02, 0.03, 0.04])
        assert np.array_equal(outer[0.02], full[0.02])
        assert np.array_equal(outer[0.04], full[0.04])


class TestGuards:
    def test_store_rejects_keep_results(self, tmp_path):
        with pytest.raises(ConfigurationError, match="keep_results"):
            sweep_scenario(
                binary_spec(),
                "algorithm.gamma",
                [0.02],
                trials=2,
                store=tmp_path,
                keep_results=True,
            )

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one value"):
            sweep_scenario(binary_spec(), "algorithm.gamma", [])

    def test_max_new_points_without_store(self):
        # The budget also applies storeless (useful for dry runs): the
        # first point computes, then the interrupt fires.
        with pytest.raises(SweepInterrupted):
            sweep_scenario(
                binary_spec(), "algorithm.gamma", VALUES, trials=2, max_new_points=1
            )


class TestSharedPiCacheWithStore:
    def test_store_holds_records_only_and_matches_uncached(self, tmp_path):
        # The join cache lives in memory: a store-backed sweep over a
        # warm cache writes the same results/ tree as the cold sweep
        # before it, and nothing else.
        for name in ("plain", "cached"):
            sweep_scenario(
                binary_spec(),
                "algorithm.gamma",
                [0.02, 0.04],
                trials=2,
                store=tmp_path / name,
            )
        cached, plain = tmp_path / "cached", tmp_path / "plain"
        assert sorted(p.name for p in cached.iterdir()) == ["results"]
        files = sorted(p.relative_to(cached) for p in cached.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(plain) for p in plain.rglob("*") if p.is_file())
        for rel in files:
            assert (cached / rel).read_bytes() == (plain / rel).read_bytes()
