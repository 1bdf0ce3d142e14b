"""Scheduler end-to-end: drain, resume, reclaim, kill-recovery.

The acceptance contract mirrors the store-backed sweep one, scaled out:
however a grid is drained — serially, by N worker processes, interrupted
and resumed, or with workers SIGKILL'd mid-flight — the store's
``results/`` tree must come out byte-identical.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

import repro.sched.scheduler as scheduler_mod
import repro.sched.worker as worker_mod
from repro.exceptions import ConfigurationError, SchedulerError
from repro.scenario import ScenarioSpec, sweep_scenario
from repro.sched import (
    GridSpec,
    LeaseManager,
    collect_grid,
    format_status,
    grid_status,
    init_grid,
    load_grid,
    run_grid,
    run_worker,
)
from repro.sched.scheduler import GRID_MANIFEST
from repro.store import LEASE_SUFFIX, ResultStore
from repro.store.records import PAYLOAD_SUFFIX

from tests.store.test_records import flip_entry_byte


def tiny_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        algorithm={"name": "ant", "params": {"gamma": 0.025}},
        demand={"name": "uniform", "params": {"n": 2000, "k": 4}},
        feedback={"name": "exact"},
        engine={"name": "counting"},
        rounds=60,
        seed=11,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def single_axis_grid(values=(0.02, 0.04), **overrides) -> GridSpec:
    kwargs = dict(
        spec=tiny_spec(),
        axes=[{"parameter": "algorithm.gamma", "values": list(values)}],
        trials=2,
    )
    kwargs.update(overrides)
    return GridSpec(**kwargs)


def tree_hashes(store: ResultStore) -> dict[str, str]:
    """``relative path -> sha256`` of every file under ``results/``."""
    out = {}
    for path in sorted(store.results_dir.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(store.results_dir))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


# ----------------------------------------------------------------------
# Serial drains and sweep interop


class TestSerialDrain:
    def test_run_grid_drains_and_reports(self, tmp_path):
        grid = single_axis_grid()
        store = ResultStore(tmp_path)
        status = run_grid(store, grid)
        assert status["done"] and status["committed"] == 2
        assert status["computed"] == 2
        assert "2/2 committed" in format_status(status)

    def test_grid_summaries_match_sweep_scenario_bitwise(self, tmp_path):
        values = [0.02, 0.04]
        grid = single_axis_grid(values)
        store = ResultStore(tmp_path)
        run_grid(store, grid)
        result = collect_grid(store, grid)
        plain = sweep_scenario(tiny_spec(), "algorithm.gamma", values, trials=2)
        for a, b in zip(result.summaries, plain.summaries):
            assert a.label == b.label
            assert np.array_equal(a.average_regrets, b.average_regrets)
            assert np.array_equal(a.max_abs_deficits, b.max_abs_deficits)
            assert np.array_equal(a.switches_per_round, b.switches_per_round)

    def test_sweep_scenario_resumes_from_a_grid_store(self, tmp_path):
        # Digest compatibility, direction 1: a store drained by the
        # scheduler serves a classic sweep entirely from cache.
        values = [0.02, 0.04]
        run_grid(ResultStore(tmp_path), single_axis_grid(values))
        out = sweep_scenario(
            tiny_spec(), "algorithm.gamma", values, trials=2, store=tmp_path
        )
        assert out.resumed == [True, True]

    def test_grid_resumes_from_a_sweep_store(self, tmp_path):
        # Direction 2: a store populated by sweep_scenario leaves the
        # scheduler nothing to compute.
        values = [0.02, 0.04]
        sweep_scenario(tiny_spec(), "algorithm.gamma", values, trials=2, store=tmp_path)
        stats = run_worker(ResultStore(tmp_path), single_axis_grid(values))
        assert stats.computed == 0


# ----------------------------------------------------------------------
# Interruption, reclaim, kill-recovery


class TestCrashRecovery:
    def test_interrupted_drain_resumes_byte_identical(self, tmp_path):
        grid = single_axis_grid([0.02, 0.03, 0.04], trials=1)
        store_a = ResultStore(tmp_path / "a")
        stats = run_worker(store_a, grid, max_points=1)
        assert stats.computed == 1
        status = grid_status(store_a, grid)
        assert status["committed"] == 1 and status["pending"] == 2

        resumed = run_worker(store_a, grid)
        assert resumed.computed == 2  # only the missing points

        store_b = ResultStore(tmp_path / "b")
        run_worker(store_b, grid)
        assert tree_hashes(store_a) == tree_hashes(store_b)

    def test_corrupt_committed_point_is_recomputed(self, tmp_path):
        # A payload that fails its CRC check is not committed: the grid
        # is not done until the point is recomputed, and then it reads.
        grid = single_axis_grid([0.02, 0.04], trials=1)
        store = ResultStore(tmp_path)
        run_grid(store, grid)
        before = tree_hashes(store)
        point = grid.points()[0]
        flip_entry_byte(store.record_dir(point.digest) / f"{point.digest}{PAYLOAD_SUFFIX}")
        assert not grid_status(store, grid)["done"]
        status = run_grid(store, grid)
        assert status["done"] and status["computed"] == 1
        assert len(collect_grid(store, grid).summaries) == 2
        assert tree_hashes(store) == before

    def test_max_points_zero_commits_nothing(self, tmp_path):
        grid = single_axis_grid([0.02, 0.03, 0.04], trials=1)
        store = ResultStore(tmp_path)
        stats = run_worker(store, grid, max_points=0)
        assert stats.computed == 0
        assert list(store.iter_records()) == []
        assert not any(store.sched_dir.rglob(f"*{LEASE_SUFFIX}"))
        with pytest.raises(ConfigurationError, match="max_points"):
            run_worker(store, grid, max_points=-5)
        assert list(store.iter_records()) == []

    def test_dead_workers_stale_lease_is_reclaimed(self, tmp_path):
        # A SIGKILL'd worker, simulated deterministically: its lease file
        # exists with a silent (backdated) heartbeat.
        grid = single_axis_grid([0.02], trials=1)
        store = ResultStore(tmp_path)
        grid_dir = store.sched_dir / grid.grid_digest()
        dead = LeaseManager(grid_dir, ttl=1.0, worker_id="dead")
        lease = dead.try_claim(grid.points()[0].digest)
        old = lease.path.stat().st_mtime - 10.0
        os.utime(lease.path, (old, old))

        stats = run_worker(store, grid, ttl=1.0)
        assert stats.computed == 1
        status = grid_status(store, grid, ttl=1.0)
        assert status["done"] and status["reclaimed"] == 1

    def test_reclaimed_holders_racing_commit_is_not_recomputed(self, tmp_path, monkeypatch):
        # The claim/re-check window: a reclaimed worker may commit after
        # our staleness check.  The record, not the lease, decides.
        grid = single_axis_grid([0.02], trials=1)
        store = ResultStore(tmp_path)
        point = grid.points()[0]
        arrays, meta = point.point_record(point.compute())
        real = worker_mod.LeaseManager

        class RacingManager(real):
            def try_claim(self, digest):
                lease = real.try_claim(self, digest)
                if lease is not None:
                    store.write_record(digest, arrays, meta)
                return lease

        monkeypatch.setattr(worker_mod, "LeaseManager", RacingManager)
        stats = run_worker(store, grid)
        assert stats.computed == 0 and stats.resumed_skips == 1
        assert store.has_record(point.digest)

    def test_worker_waits_out_a_live_lease(self, tmp_path):
        # A point leased by a live peer is skipped, not stolen; once the
        # peer releases, the waiting worker finishes the frontier.  Its
        # idle passes re-check only the point still outstanding.
        grid = single_axis_grid([0.02, 0.04], trials=1)
        blocked, free = (job.digest for job in grid.points())
        store = ResultStore(tmp_path)
        blocker = LeaseManager(
            store.sched_dir / grid.grid_digest(), ttl=60.0, worker_id="blocker"
        )
        held = blocker.try_claim(blocked)
        assert held is not None

        worker_store = ResultStore(tmp_path)
        checked = []
        real_has_record = worker_store.has_record

        def has_record(digest):
            checked.append(digest)
            return real_has_record(digest)

        worker_store.has_record = has_record
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(stats=run_worker(worker_store, grid))
        )
        thread.start()
        deadline = time.monotonic() + 30.0
        while not store.has_record(free):
            assert time.monotonic() < deadline, "worker never computed the free point"
            time.sleep(0.005)
        seen = len(checked)
        while len(checked) < seen + 3:  # a few idle passes after the commit
            assert time.monotonic() < deadline, "worker stopped re-checking"
            time.sleep(0.005)
        held.release()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert result["stats"].lease_denied >= 3
        assert grid_status(store, grid)["done"]
        assert blocker.reclaimed_count() == 0  # the live lease was never stolen
        # The free point is checked before its claim and again after it;
        # every later pass checks the blocked point alone.
        last_free = len(checked) - 1 - checked[::-1].index(free)
        assert checked.count(free) == 2
        assert set(checked[last_free + 1 :]) == {blocked}

    def test_sigkilled_worker_process_leaves_a_recoverable_store(self, tmp_path):
        # The real thing: fork a worker, SIGKILL it once it holds a
        # lease, drain the rest, and byte-compare against a store that
        # was never interrupted.
        grid = single_axis_grid(
            [round(0.02 + 0.004 * i, 3) for i in range(10)], trials=1, rounds=400
        )
        store_a = ResultStore(tmp_path / "a")
        init_grid(store_a, grid)
        lease_dir = store_a.sched_dir / grid.grid_digest() / "leases"

        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(
            target=run_worker,
            args=(store_a, grid),
            kwargs={"ttl": 0.5},
        )
        proc.start()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if any(lease_dir.glob("*.lease")) or grid_status(store_a, grid)["done"]:
                break
            time.sleep(0.002)
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=30.0)

        stats = run_worker(store_a, grid, ttl=0.5)
        assert grid_status(store_a, grid)["done"]
        assert stats.computed <= grid.n_points

        store_b = ResultStore(tmp_path / "b")
        run_worker(store_b, grid)
        # Sweep the killed worker's temp-file debris, then compare.
        store_a.gc(grace_seconds=0)
        assert tree_hashes(store_a) == tree_hashes(store_b)


# ----------------------------------------------------------------------
# Multi-process orchestration


class TestRunGridWorkers:
    def test_two_worker_drain_is_byte_identical_to_serial(self, tmp_path):
        grid = single_axis_grid([0.02, 0.03, 0.04, 0.05], trials=1)
        serial = ResultStore(tmp_path / "serial")
        run_grid(serial, grid)
        parallel = ResultStore(tmp_path / "par")
        status = run_grid(parallel, grid, workers=2, ttl=10.0)
        assert status["done"]
        assert tree_hashes(parallel) == tree_hashes(serial)

    def test_returns_when_the_last_worker_exits(self, tmp_path):
        # The drain ends with the worker's exit, not the next progress tick.
        grid = single_axis_grid([0.02], trials=1)
        started = time.monotonic()
        status = run_grid(ResultStore(tmp_path), grid, workers=1, progress_interval=30.0)
        assert status["done"]
        assert time.monotonic() - started < 10.0

    def test_a_dead_sibling_neither_stalls_nor_spins_the_wait(self, tmp_path, monkeypatch):
        # w0 dies at once; its sentinel stays ready, so waiting on it
        # again would re-read the frontier in a tight loop.
        real_main = scheduler_mod._worker_main

        def worker_main(*args):
            if args[-1] == "w0":
                raise RuntimeError("w0 dies at once")
            real_main(*args)

        status_calls = []
        real_status = scheduler_mod.grid_status

        def grid_status_spy(*args, **kwargs):
            status_calls.append(time.monotonic())
            return real_status(*args, **kwargs)

        monkeypatch.setattr(scheduler_mod, "_worker_main", worker_main)
        monkeypatch.setattr(scheduler_mod, "grid_status", grid_status_spy)
        grid = single_axis_grid([0.02, 0.04], trials=1)
        interval = 0.5
        started = time.monotonic()
        status = run_grid(ResultStore(tmp_path), grid, workers=2, progress_interval=interval)
        elapsed = time.monotonic() - started
        assert status["done"]
        assert len(status_calls) <= elapsed / interval + 3

    def test_bad_ttl_raises_before_any_fork_or_lease(self, tmp_path, monkeypatch):
        def no_fork(*args, **kwargs):
            raise AssertionError("run_grid reached its process context")

        monkeypatch.setattr(scheduler_mod.multiprocessing, "get_context", no_fork)
        grid = single_axis_grid([0.02], trials=1)
        with pytest.raises(ConfigurationError, match="lease ttl"):
            run_grid(ResultStore(tmp_path), grid, workers=2, ttl=float("nan"))
        assert not list(tmp_path.rglob(f"*{LEASE_SUFFIX}"))

    def test_all_workers_crashing_raises_but_preserves_frontier(self, tmp_path):
        # An unrunnable grid (bogus run kwarg survives JSON validation
        # but explodes at execution) kills every worker; the orchestrator
        # must say so instead of hanging.
        grid = single_axis_grid([0.02], trials=1, run_overrides={"bogus_kwarg": 1})
        store = ResultStore(tmp_path)
        with pytest.raises(SchedulerError, match="re-run to resume"):
            run_grid(store, grid, workers=1, progress_interval=0.05)
        assert not grid_status(store, grid)["done"]


# ----------------------------------------------------------------------
# Persistence, status, collection


class TestGridPersistence:
    def test_init_is_idempotent(self, tmp_path):
        grid = single_axis_grid()
        store = ResultStore(tmp_path)
        manifest = init_grid(store, grid) / GRID_MANIFEST
        first = manifest.read_bytes()
        assert init_grid(store, grid) / GRID_MANIFEST == manifest
        assert manifest.read_bytes() == first

    def test_load_grid_roundtrips(self, tmp_path):
        grid = single_axis_grid()
        store = ResultStore(tmp_path)
        init_grid(store, grid)
        auto = load_grid(store)
        assert auto.grid_digest() == grid.grid_digest()
        explicit = load_grid(store, grid.grid_digest())
        assert explicit.grid_digest() == grid.grid_digest()

    def test_load_grid_errors(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(SchedulerError, match="no grids"):
            load_grid(store)
        grid = single_axis_grid()
        init_grid(store, grid)
        with pytest.raises(SchedulerError, match="no grid 'feed'"):
            load_grid(store, "feed")
        init_grid(store, single_axis_grid([0.06]))
        with pytest.raises(SchedulerError, match="2 grids"):
            load_grid(store)
        # Explicit digests stay usable when auto-discovery is ambiguous.
        assert load_grid(store, grid.grid_digest()).grid_digest() == grid.grid_digest()

    def test_status_counts_fresh_grid(self, tmp_path):
        grid = single_axis_grid([0.02, 0.04], trials=1)
        status = grid_status(ResultStore(tmp_path), grid)
        assert status == {
            "grid": grid.grid_digest(),
            "total": 2,
            "committed": 0,
            "leased": 0,
            "pending": 2,
            "reclaimed": 0,
            "done": False,
        }

    def test_status_sees_fresh_leases_but_not_stale_ones(self, tmp_path):
        grid = single_axis_grid([0.02, 0.04], trials=1)
        store = ResultStore(tmp_path)
        manager = LeaseManager(store.sched_dir / grid.grid_digest(), ttl=60.0)
        lease = manager.try_claim(grid.points()[0].digest)
        assert grid_status(store, grid)["leased"] == 1
        old = lease.path.stat().st_mtime - 120.0
        os.utime(lease.path, (old, old))
        status = grid_status(store, grid)  # default TTL 60s: now stale
        assert status["leased"] == 0 and status["pending"] == 2


class TestCollection:
    def test_collect_requires_a_drained_grid(self, tmp_path):
        grid = single_axis_grid([0.02, 0.04], trials=1)
        store = ResultStore(tmp_path)
        with pytest.raises(SchedulerError, match="2 uncommitted"):
            collect_grid(store, grid)

    def test_grid_result_series_and_shape(self, tmp_path):
        grid = GridSpec(
            spec=tiny_spec(),
            axes=[
                {"parameter": "algorithm.gamma", "values": [0.02, 0.04]},
                {"parameter": "demand.k", "values": [2, 4, 8]},
            ],
            trials=1,
        )
        store = ResultStore(tmp_path)
        run_grid(store, grid)
        result = collect_grid(store, grid)
        assert result.shape == (2, 3)
        series = result.series()
        assert series.shape == (6,)
        assert np.isfinite(series).all()
        assert series.reshape(result.shape).shape == (2, 3)
        with pytest.raises(SchedulerError, match="single-axis"):
            result.as_sweep_result()

    def test_single_axis_result_as_sweep_result(self, tmp_path):
        values = [0.02, 0.04]
        grid = single_axis_grid(values, trials=1)
        store = ResultStore(tmp_path)
        run_grid(store, grid)
        sweep = collect_grid(store, grid).as_sweep_result()
        assert sweep.parameter == "algorithm.gamma"
        assert sweep.values == values
        assert sweep.resumed == [True, True]
        assert len(sweep.summaries) == 2
