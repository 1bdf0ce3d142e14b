"""The null-overhead invariant: obs never changes a byte of the store.

The observability spine is read-only on determinism — no clock reading,
metric value, or trace state may flow into digests, manifests, or
records (lint rule RPR007 bans it statically; these tests prove it
dynamically).  Every committed byte must be identical with tracing on,
off, or switched off mid-run, serial or through the process pool.

Separately, the *trace files themselves* become deterministic under an
injected FakeClock: two identical runs write byte-identical JSONL.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.exceptions import SweepInterrupted
from repro.obs import FakeClock, trace_to, uninstall_tracer, use_clock
from repro.scenario import ScenarioSpec, run_scenario, sweep_scenario
from repro.sim.counting import clear_join_cache

VALUES = [0.02, 0.03]


def binary_spec() -> ScenarioSpec:
    return ScenarioSpec(
        algorithm={"name": "ant", "params": {"gamma": 0.025}},
        demand={"name": "uniform", "params": {"n": 2000, "k": 4}},
        feedback={"name": "exact"},
        engine={"name": "counting"},
        rounds=120,
        seed=11,
    )


def store_bytes(root: Path) -> dict[str, bytes]:
    """Every committed record/manifest file, keyed by relative path."""
    results = Path(root) / "results"
    return {
        str(path.relative_to(results)): path.read_bytes()
        for path in sorted(results.rglob("*"))
        if path.is_file()
    }


def sweep_into(store: Path, *, trials: int = 2, parallel: int = 0, **kwargs):
    return sweep_scenario(
        binary_spec(),
        "algorithm.gamma",
        VALUES,
        trials=trials,
        parallel=parallel,
        store=store,
        **kwargs,
    )


class TestStoreByteIdentity:
    def test_traced_serial_sweep_commits_identical_bytes(self, tmp_path):
        with trace_to(tmp_path / "trace.jsonl"):
            sweep_into(tmp_path / "traced")
        sweep_into(tmp_path / "bare")
        traced = store_bytes(tmp_path / "traced")
        assert traced == store_bytes(tmp_path / "bare")
        assert traced  # the sweep committed something to compare
        assert (tmp_path / "trace.jsonl").stat().st_size > 0

    def test_traced_process_pool_sweep_commits_identical_bytes(self, tmp_path):
        with trace_to(tmp_path / "trace.jsonl"):
            sweep_into(tmp_path / "traced", trials=4, parallel=2)
        sweep_into(tmp_path / "bare", trials=4, parallel=0)
        assert store_bytes(tmp_path / "traced") == store_bytes(tmp_path / "bare")

    def test_tracing_disabled_mid_run_commits_identical_bytes(self, tmp_path):
        # Interrupt a traced sweep after its first committed point, drop
        # the tracer, resume bare: the store must equal one written by
        # an uninterrupted never-traced sweep.
        try:
            with pytest.raises(SweepInterrupted):
                with trace_to(tmp_path / "trace.jsonl"):
                    sweep_into(tmp_path / "mixed", max_new_points=1)
        finally:
            uninstall_tracer()
        sweep_into(tmp_path / "mixed")
        sweep_into(tmp_path / "bare")
        assert store_bytes(tmp_path / "mixed") == store_bytes(tmp_path / "bare")

    def test_fake_clock_does_not_change_results(self, tmp_path):
        # Even with a fake clock feeding every duration measurement, the
        # simulation trajectory is untouched: clock readings are
        # observations, never inputs.
        with use_clock(FakeClock(tick=0.001)):
            sweep_into(tmp_path / "faked")
        sweep_into(tmp_path / "bare")
        assert store_bytes(tmp_path / "faked") == store_bytes(tmp_path / "bare")


class TestTraceDeterminism:
    def test_two_identical_engine_runs_write_identical_traces(self, tmp_path):
        def traced_run(path: Path) -> None:
            # A fresh FakeClock per run: both the tracer origin and the
            # engine's duration reads go through it, so every t/dur in
            # the file is reproducible.
            with use_clock(FakeClock(start=0.0, tick=0.001)):
                with trace_to(path):
                    run_scenario(binary_spec())

        # Each run starts from an empty join store: a trace records the
        # kernel calls, and a warm rerun makes none.
        clear_join_cache()
        traced_run(tmp_path / "a.jsonl")
        traced_run(tmp_path / "warm.jsonl")
        clear_join_cache()
        traced_run(tmp_path / "b.jsonl")
        a = (tmp_path / "a.jsonl").read_bytes()
        assert a == (tmp_path / "b.jsonl").read_bytes()
        assert b"join_kernel" in a and b"pi_cache_stats" in a
        warm = (tmp_path / "warm.jsonl").read_bytes()
        assert b"join_kernel" not in warm and b"pi_cache_stats" in warm
