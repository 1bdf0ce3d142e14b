"""Service core: dedup, coalescing, back pressure, leases, byte-identity.

The acceptance contract mirrors the scheduler's: no matter which path
computes a point — a store-backed sweep, a grid worker, or the service —
the committed record files are byte-identical, and duplicate work is
structurally impossible to observe (only counters tell you it happened).
"""

from __future__ import annotations

import math
import os
import threading
import time

import numpy as np
import pytest

import repro.scenario.runner as scenario_runner_mod
from repro.exceptions import ConfigurationError, ServiceBusy
from repro.scenario import sweep_scenario
from repro.sched.leases import LeaseManager
from repro.serve import ScenarioRequest, ScenarioService
from repro.serve.service import SERVE_LEASE_DIR
from repro.sim.counting import clear_join_cache
from repro.store import ResultStore

from tests.serve.test_request import tiny_spec

POLL = 0.01
DEADLINE = 30.0


def wait_for(predicate, deadline: float = DEADLINE):
    t0 = time.perf_counter()
    while not predicate():
        if time.perf_counter() - t0 > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(POLL)


def request_for(gamma: float, trials: int = 2) -> ScenarioRequest:
    return ScenarioRequest(
        spec=tiny_spec(), params={"algorithm.gamma": gamma}, trials=trials
    )


class RunTrialsSpy:
    """Counts (and optionally slows) the service's kernel executions
    (``PointJob.compute``'s ``run_trials`` call)."""

    def __init__(self, monkeypatch, delay: float = 0.0):
        self.calls = 0
        self.delay = delay
        real = scenario_runner_mod.run_trials

        def counted(*args, **kwargs):
            self.calls += 1
            if self.delay:
                time.sleep(self.delay)
            return real(*args, **kwargs)

        monkeypatch.setattr(scenario_runner_mod, "run_trials", counted)


class TestComputeAndDedup:
    def test_cold_submit_computes_and_commits(self, tmp_path):
        service = ScenarioService(ResultStore(tmp_path), workers=1)
        request = request_for(0.03)
        with service:
            digest, disposition = service.submit(request)
            assert disposition == "queued"
            wait_for(lambda: service.state_of(digest) == "committed")
        status = service.status()
        assert status.computed == 1 and status.misses == 1

    def test_second_submit_is_a_hit_with_no_recompute(self, tmp_path, monkeypatch):
        service = ScenarioService(ResultStore(tmp_path), workers=1)
        request = request_for(0.03)
        with service:
            digest, _ = service.submit(request)
            wait_for(lambda: service.state_of(digest) == "committed")
            spy = RunTrialsSpy(monkeypatch)
            digest2, disposition = service.submit(request_for(0.03))
            assert (digest2, disposition) == (digest, "hit")
        assert spy.calls == 0
        assert service.status().hits == 1

    def test_service_record_is_byte_identical_to_sweep_record(self, tmp_path):
        sweep_store = ResultStore(tmp_path / "sweep")
        sweep_scenario(tiny_spec(), "algorithm.gamma", [0.03], trials=2, store=sweep_store)

        serve_store = ResultStore(tmp_path / "serve")
        service = ScenarioService(serve_store, workers=1)
        with service:
            digest, _ = service.submit(request_for(0.03))
            wait_for(lambda: service.state_of(digest) == "committed")

        sweep_dir = sweep_store.record_dir(digest)
        serve_dir = serve_store.record_dir(digest)
        names = sorted(p.name for p in sweep_dir.iterdir())
        assert names == sorted(p.name for p in serve_dir.iterdir())
        for name in names:
            assert (sweep_dir / name).read_bytes() == (serve_dir / name).read_bytes()

    def test_two_workers_compute_distinct_points_concurrently(self, tmp_path, monkeypatch):
        # The first two computations meet at a barrier, so both worker
        # threads read and fill the process join store at once; the
        # records still match a cold-store sweep's byte for byte.
        values = [0.02, 0.03, 0.04, 0.05]
        barrier = threading.Barrier(2, timeout=DEADLINE)
        lock = threading.Lock()
        computing: list[str] = []
        real = scenario_runner_mod.run_trials

        def paired(*args, **kwargs):
            with lock:
                computing.append(threading.current_thread().name)
                first_two = len(computing) <= 2
            if first_two:
                barrier.wait()
            return real(*args, **kwargs)

        monkeypatch.setattr(scenario_runner_mod, "run_trials", paired)
        serve_store = ResultStore(tmp_path / "serve")
        with ScenarioService(serve_store, workers=2) as service:
            digests = [service.submit(request_for(gamma))[0] for gamma in values]
            wait_for(lambda: all(service.state_of(d) == "committed" for d in digests))
        assert len(set(computing[:2])) == 2 and service.status().failed == 0

        clear_join_cache()
        sweep_store = ResultStore(tmp_path / "sweep")
        sweep_scenario(tiny_spec(), "algorithm.gamma", values, trials=2, store=sweep_store)
        files = sorted(p.relative_to(sweep_store.root) for p in sweep_store.root.rglob("*.*"))
        assert len(files) == 2 * len(values)  # a manifest and a payload per point
        for rel in files:
            assert (serve_store.root / rel).read_bytes() == (sweep_store.root / rel).read_bytes()

    def test_duplicate_in_flight_submissions_coalesce(self, tmp_path, monkeypatch):
        spy = RunTrialsSpy(monkeypatch, delay=0.3)
        service = ScenarioService(ResultStore(tmp_path), workers=2)
        with service:
            digest, first = service.submit(request_for(0.03))
            assert first == "queued"
            # While the computation is in flight, identical submissions
            # coalesce instead of enqueueing a second execution.
            wait_for(lambda: spy.calls == 1)
            digest2, second = service.submit(request_for(0.03))
            assert (digest2, second) == (digest, "pending")
            wait_for(lambda: service.state_of(digest) == "committed")
        assert spy.calls == 1
        status = service.status()
        assert status.coalesced == 1 and status.computed == 1


class TestBackPressureAndFailures:
    def test_queue_overflow_raises_service_busy(self, tmp_path):
        service = ScenarioService(ResultStore(tmp_path), workers=0, max_pending=2)
        service.submit(request_for(0.02))
        service.submit(request_for(0.03))
        with pytest.raises(ServiceBusy, match="2 requests pending"):
            service.submit(request_for(0.04))

    def test_committed_digests_are_never_refused(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep_scenario(tiny_spec(), "algorithm.gamma", [0.05], trials=2, store=store)
        service = ScenarioService(store, workers=0, max_pending=1)
        service.submit(request_for(0.02))  # fills the queue
        digest, disposition = service.submit(request_for(0.05))
        assert disposition == "hit"
        assert service.state_of(digest) == "committed"

    def test_failed_computation_is_reported_and_retryable(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("injected kernel failure")

        monkeypatch.setattr(scenario_runner_mod, "run_trials", explode)
        service = ScenarioService(ResultStore(tmp_path), workers=1)
        with service:
            digest, _ = service.submit(request_for(0.03))
            wait_for(lambda: service.state_of(digest) == "failed")
            assert "injected kernel failure" in service.failure_of(digest)

            # Resubmission clears the failure and retries — this time
            # with the real kernel restored.
            from repro.sim.runner import run_trials as real_run_trials

            monkeypatch.setattr(scenario_runner_mod, "run_trials", real_run_trials)
            digest2, disposition = service.submit(request_for(0.03))
            assert digest2 == digest and disposition == "queued"
            wait_for(lambda: service.state_of(digest) == "committed")
        assert service.status().failed == 1


class TestLeases:
    def test_stale_lease_from_crashed_process_is_reclaimed(self, tmp_path):
        """A dead process's lease must not block the request forever."""
        store = ResultStore(tmp_path)
        request = request_for(0.03)
        digest = request.digest()
        # Simulate a crashed service process: a lease exists but its
        # heartbeat stopped (backdated mtime), and no record ever lands.
        crashed = LeaseManager(store.sched_dir / SERVE_LEASE_DIR, ttl=5.0, worker_id="dead")
        stale = crashed.try_claim(digest)
        old = stale.path.stat().st_mtime - 60.0
        os.utime(stale.path, (old, old))

        service = ScenarioService(store, workers=1, ttl=5.0)
        with service:
            digest2, disposition = service.submit(request)
            assert digest2 == digest and disposition == "queued"
            wait_for(lambda: service.state_of(digest) == "committed")
        assert service.status().computed == 1
        assert service.status().reclaimed == 1

    def test_live_foreign_lease_is_waited_out_not_recomputed(self, tmp_path, monkeypatch):
        """Another process computing the digest: the worker keeps
        retrying its claim (counted live in /status) and takes the
        foreign commit instead of computing."""
        store = ResultStore(tmp_path)
        request = request_for(0.03)
        digest = request.digest()
        other = LeaseManager(store.sched_dir / SERVE_LEASE_DIR, ttl=60.0, worker_id="other")
        lease = other.try_claim(digest)
        assert lease is not None
        spy = RunTrialsSpy(monkeypatch)
        service = ScenarioService(store, workers=1)
        with service:
            assert service.submit(request) == (digest, "queued")
            wait_for(lambda: service.status().lease_denied >= 1)
            assert service.state_of(digest) == "pending"
            job = request.job  # the foreign process computes and commits
            arrays, meta = job.point_record(job.compute())
            store.write_record(digest, arrays, meta)
            lease.release()
            wait_for(lambda: service.state_of(digest) == "committed")
        assert service.status().computed == 0
        assert spy.calls == 1  # the foreign computation only

    def test_silent_foreign_lease_is_reclaimed_after_its_ttl(self, tmp_path):
        """A foreign lease that never heartbeats nor commits blocks the
        digest for one TTL; then the service reclaims it and computes."""
        store = ResultStore(tmp_path)
        request = request_for(0.03)
        digest = request.digest()
        silent = LeaseManager(store.sched_dir / SERVE_LEASE_DIR, ttl=0.5, worker_id="silent")
        assert silent.try_claim(digest) is not None
        service = ScenarioService(store, workers=1, ttl=0.5)
        with service:
            service.submit(request)
            wait_for(lambda: service.state_of(digest) == "committed")
        status = service.status()
        assert status.computed == 1 and status.reclaimed == 1
        assert status.lease_denied >= 1

    @pytest.mark.parametrize("ttl", [math.nan, math.inf])
    def test_non_finite_ttl_is_refused_before_any_worker_starts(self, tmp_path, ttl):
        with pytest.raises(ConfigurationError, match="lease ttl"):
            ScenarioService(ResultStore(tmp_path), workers=2, ttl=ttl)
        assert not any(t.name.startswith("serve-worker") for t in threading.enumerate())

    def test_fresh_foreign_lease_reports_pending(self, tmp_path):
        """Cross-process coalescing: another process's live computation
        makes the digest poll as pending here."""
        store = ResultStore(tmp_path)
        digest = request_for(0.03).digest()
        other = LeaseManager(store.sched_dir / SERVE_LEASE_DIR, ttl=60.0, worker_id="other")
        assert other.try_claim(digest) is not None
        service = ScenarioService(store, workers=0)
        assert service.state_of(digest) == "pending"

    def test_unknown_digest_is_unknown(self, tmp_path):
        service = ScenarioService(ResultStore(tmp_path), workers=0)
        assert service.state_of("ab" * 32) == "unknown"


class _ProbedPending(dict):
    """A pending map whose membership test runs ``hook`` after answering."""

    def __init__(self, contents, hook):
        super().__init__(contents)
        self._hook = hook

    def __contains__(self, key):
        answer = super().__contains__(key)
        self._hook()
        return answer


class TestPollRace:
    """A poll must never answer "unknown" for a computation that is
    finishing: whichever of ``state_of``'s reads the worker's completion
    (commit, then lease release, then pending-map pop) lands right after,
    the poll reads pending or committed, and the next one committed."""

    @pytest.mark.parametrize("probe", ["pending", "lease", "store"])
    def test_completion_landing_after_each_read_is_never_unknown(
        self, tmp_path, monkeypatch, probe
    ):
        store = ResultStore(tmp_path)
        service = ScenarioService(store, workers=0)
        digest, disposition = service.submit(request_for(0.03))
        assert disposition == "queued"
        worker = LeaseManager(store.sched_dir / SERVE_LEASE_DIR, ttl=60.0, worker_id="w")
        lease = worker.try_claim(digest)
        assert lease is not None
        done = []

        def finish():
            # A service worker's exit order: drain_jobs commits and
            # releases the lease, then ScenarioService._worker_loop pops
            # the digest.  The pop skips the lock: the hook may run
            # while state_of holds it.
            if not done:
                done.append(True)
                store.write_record(digest, {"a": np.array([1.0])}, {"kind": "sweep_point"})
                lease.release()
                dict.pop(service._pending, digest, None)

        def after(read):
            def probed(*args, **kwargs):
                answer = read(*args, **kwargs)
                finish()
                return answer

            return probed

        if probe == "pending":
            service._pending = _ProbedPending(service._pending, finish)
        elif probe == "lease":
            monkeypatch.setattr(service._manager, "is_leased", after(service._manager.is_leased))
        else:
            monkeypatch.setattr(store, "has_record", after(store.has_record))

        assert service.state_of(digest) in ("pending", "committed")
        finish()
        assert service.state_of(digest) == "committed"
