"""One lane count per spec on every point-execution path.

A ``counting_batched`` spec's ``batch`` param sets how many trials each
batched chunk advances, whether its point runs through
``sweep_scenario``, a grid worker (``run_worker``) or the scenario
service: all three compute the point's :class:`~repro.scenario.PointJob`,
which resolves the lane count through
:func:`repro.scenario.runner.resolve_batch`, and the records they commit
are byte-identical.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.sim.runner as runner_mod
from repro.scenario import ScenarioFactory, ScenarioSpec, sweep_scenario
from repro.scenario.runner import resolve_batch
from repro.sched import GridSpec
from repro.sched.worker import run_worker
from repro.serve import ScenarioRequest, ScenarioService
from repro.sim.batched import BatchedCountingSimulator
from repro.sim.runner import run_trials
from repro.store import ResultStore

from tests.serve.test_request import tiny_spec

TRIALS = 5
GAMMA = 0.03


def batched_spec() -> ScenarioSpec:
    return tiny_spec(engine={"name": "counting_batched", "params": {"batch": 3}})


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


def grid() -> GridSpec:
    return GridSpec(
        spec=batched_spec(),
        axes=[{"parameter": "algorithm.gamma", "values": [GAMMA]}],
        trials=TRIALS,
    )


def record_bytes(store: ResultStore, digest: str) -> dict[str, bytes]:
    directory = store.record_dir(digest)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def commit_by_sweep(root) -> tuple[ResultStore, str]:
    store = ResultStore(root)
    sweep_scenario(batched_spec(), "algorithm.gamma", [GAMMA], trials=TRIALS, store=store)
    ((digest, _),) = list(store.iter_records())
    return store, digest


class TestResolveBatch:
    def test_spec_param_explicit_override_and_default(self):
        assert resolve_batch(batched_spec()) == 3
        assert resolve_batch(batched_spec(), batch=0) == 0
        assert resolve_batch(batched_spec(), parallel=2) is None
        assert resolve_batch(tiny_spec()) is None


class TestEveryPathRunsTheSpecsChunks:
    def test_sweep_scenario(self, tmp_path, monkeypatch):
        spy = LaneSpy(monkeypatch)
        commit_by_sweep(tmp_path)
        assert spy.chunks == [3, 2]

    def test_execute_point(self, monkeypatch):
        spy = LaneSpy(monkeypatch)
        (job,) = grid().points()
        job.compute()
        assert spy.chunks == [3, 2]

    def test_run_worker_commits_the_sweep_record(self, tmp_path, monkeypatch):
        sweep_store, digest = commit_by_sweep(tmp_path / "sweep")
        spy = LaneSpy(monkeypatch)
        grid_store = ResultStore(tmp_path / "grid")
        stats = run_worker(grid_store, grid())
        assert spy.chunks == [3, 2]
        assert stats.digests == [digest]
        assert record_bytes(grid_store, digest) == record_bytes(sweep_store, digest)

    def test_service_commits_the_sweep_record(self, tmp_path, monkeypatch):
        sweep_store, digest = commit_by_sweep(tmp_path / "sweep")
        spy = LaneSpy(monkeypatch)
        serve_store = ResultStore(tmp_path / "serve")
        request = ScenarioRequest(
            spec=batched_spec(), params={"algorithm.gamma": GAMMA}, trials=TRIALS
        )
        with ScenarioService(serve_store, workers=1) as service:
            submitted, disposition = service.submit(request)
            assert (submitted, disposition) == (digest, "queued")
            deadline = time.perf_counter() + 30.0
            while service.state_of(digest) != "committed":
                if time.perf_counter() > deadline:
                    pytest.fail("service never committed the request")
                time.sleep(0.01)
        assert spy.chunks == [3, 2]
        assert record_bytes(serve_store, digest) == record_bytes(sweep_store, digest)

    def test_chunks_do_not_change_the_numbers(self):
        (job,) = grid().points()
        chunked = job.compute()
        one_at_a_time = run_trials(
            ScenarioFactory(job.spec), grid().rounds, TRIALS, seed=job.seed, batch=0
        )
        np.testing.assert_array_equal(chunked.average_regrets, one_at_a_time.average_regrets)
