"""One lane rule on every point-execution path.

The trial runner alone decides how many trials a batched chunk advances
(``repro.sim.runner._run_in_process``: ``min(trials, DEFAULT_BATCH)``
counting lanes).  A point computed through ``sweep_scenario``, a grid
worker (``run_worker``) or the scenario service runs its
:class:`~repro.scenario.PointJob`, so every path runs the same chunks
and commits byte-identical records.  A ``counting_batched`` spec's
``batch`` param is inert: it keeps the spec's digest, never its chunks.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.sim.runner as runner_mod
from repro.scenario import ScenarioFactory, ScenarioSpec, sweep_scenario
from repro.sched import GridSpec
from repro.sched.worker import run_worker
from repro.serve import ScenarioRequest, ScenarioService
from repro.sim.runner import run_trials
from repro.store import ResultStore

from tests.serve.test_request import tiny_spec
from tests.sim.test_runner import LaneSpy

TRIALS = 5
GAMMA = 0.03
#: The runner's lane count in these tests: 5 trials run as chunks of
#: 2, 2 and 1, whatever the spec's ``batch`` param (3) says.
LANES = 2
CHUNKS = [2, 2, 1]


def batched_spec() -> ScenarioSpec:
    return tiny_spec(engine={"name": "counting_batched", "params": {"batch": 3}})


def lane_spy(monkeypatch) -> LaneSpy:
    """A :class:`LaneSpy` on a runner whose lane count is :data:`LANES`."""
    monkeypatch.setattr(runner_mod, "DEFAULT_BATCH", LANES)
    return LaneSpy(monkeypatch)


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


class TestEveryPathRunsTheSpecsChunks:
    """A spec's point runs the runner's chunks on every path."""

    def test_sweep_scenario(self, tmp_path, monkeypatch):
        spy = lane_spy(monkeypatch)
        commit_by_sweep(tmp_path)
        assert spy.chunks == CHUNKS

    def test_execute_point(self, monkeypatch):
        spy = lane_spy(monkeypatch)
        (job,) = grid().points()
        job.compute()
        assert spy.chunks == CHUNKS

    def test_run_worker_commits_the_sweep_record(self, tmp_path, monkeypatch):
        sweep_store, digest = commit_by_sweep(tmp_path / "sweep")
        spy = lane_spy(monkeypatch)
        grid_store = ResultStore(tmp_path / "grid")
        stats = run_worker(grid_store, grid())
        assert spy.chunks == CHUNKS
        assert stats.digests == [digest]
        assert record_bytes(grid_store, digest) == record_bytes(sweep_store, digest)

    def test_service_commits_the_sweep_record(self, tmp_path, monkeypatch):
        sweep_store, digest = commit_by_sweep(tmp_path / "sweep")
        spy = lane_spy(monkeypatch)
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
        assert spy.chunks == CHUNKS
        assert record_bytes(serve_store, digest) == record_bytes(sweep_store, digest)

    def test_chunks_do_not_change_the_numbers(self, monkeypatch):
        (job,) = grid().points()
        spy = lane_spy(monkeypatch)
        chunked = job.compute()
        monkeypatch.setattr(runner_mod, "DEFAULT_BATCH", 1)
        one_at_a_time = job.compute()
        assert spy.chunks == CHUNKS + [1] * TRIALS
        for name in ("average_regrets", "max_abs_deficits", "switches_per_round"):
            np.testing.assert_array_equal(getattr(chunked, name), getattr(one_at_a_time, name))


class TestCountingBatchedSpec:
    #: The digest of :func:`grid`'s one point, pinned when ``batch`` was
    #: still a lane count: dropping the option moved no spec's digest.
    #: Only a ``NUMERICS_VERSION`` bump may move it.
    DIGEST = "744fb7c49872cf048f53cf3ddb3d40580dfceaa8fbc66215f2d099e80c0a0d79"

    def test_digest_is_pinned_and_record_equals_counting_trials(self):
        (job,) = grid().points()
        assert job.digest == self.DIGEST
        arrays, _ = job.point_record(job.compute())
        counting = ScenarioFactory(tiny_spec().with_param("algorithm.gamma", GAMMA))
        trials = run_trials(counting, job.rounds, TRIALS, seed=job.seed)
        assert sorted(arrays) == ["average_regrets", "max_abs_deficits", "switches_per_round"]
        for name, values in arrays.items():
            np.testing.assert_array_equal(values, getattr(trials, name))

    def test_compute_rejects_removed_keywords(self):
        (job,) = grid().points()
        with pytest.raises(TypeError, match="batch"):
            job.compute(batch=3)
        with pytest.raises(TypeError, match="keep_results"):
            job.compute(keep_results=True)
