"""The lease loop: claim a pending point, execute, commit, repeat.

:func:`drain_jobs` is the one place a :class:`~repro.scenario.PointJob`
is claimed, computed and committed under a lease.  A grid worker
(:func:`run_worker`) drains every point of a grid through it; a
:class:`~repro.serve.ScenarioService` worker thread drains one
request's job.  Each pass visits only the jobs the previous pass left
outstanding (denied a lease); a pass that claims nothing sleeps
:data:`IDLE_SLEEP_S` before the next, so a job leased by a live peer is
retried until the peer commits it or its lease goes stale.  Per job:

1. **Skip** jobs whose record is already committed (the store is the
   single source of truth — a lease is only ever an optimization to
   avoid duplicate work, never a correctness requirement).  A record
   whose payload is missing or unreadable is not committed
   (:meth:`~repro.store.ResultStore.has_record`), so it is recomputed.
2. **Claim** the job's digest via ``O_EXCL`` lease creation,
   reclaiming leases whose heartbeat went silent for a TTL
   (:mod:`repro.sched.leases`).
3. **Re-check** the record after claiming — the previous holder may
   have committed between our staleness check and the reclaim.
4. **Compute** the job — the same job a store-backed ``sweep_scenario``
   runs for the point — heartbeating the lease from a daemon thread
   throughout.
5. **Commit** the job's digest-keyed record atomically, then release
   the lease.

The caller's :class:`WorkerStats` is updated as each outcome happens,
so a service's ``/status`` reads a waiting worker's denials live.

A worker that is SIGKILL'd anywhere in this loop leaves at most one
stale lease and some invisible temp files; both are reclaimed/swept by
other workers and ``gc``, and the recomputed record is byte-identical
— see the chaos tests.

Workers never coordinate beyond the shared filesystem: run several
``repro-experiments sched work`` processes on machines sharing the
store directory and they cooperate exactly like local ones.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.obs import Histogram, get_registry
from repro.obs import monotonic as obs_monotonic
from repro.obs import span as obs_span
from repro.scenario.runner import PointJob
from repro.store import ResultStore
from repro.util.validation import check_integer

from repro.sched.grid import GridSpec
from repro.sched.leases import DEFAULT_LEASE_TTL, LeaseManager

__all__ = ["IDLE_SLEEP_S", "WorkerStats", "drain_jobs", "run_worker"]

#: Sleep after a pass that claimed nothing: every outstanding point is
#: leased by a live peer, which commits or goes stale in its own time.
IDLE_SLEEP_S = 0.01


@dataclass
class WorkerStats:
    """What one worker's :func:`drain_jobs` calls did."""

    computed: int = 0
    resumed_skips: int = 0  # points found committed after claiming
    lease_denied: int = 0  # claim attempts another worker's fresh lease refused
    lost_leases: int = 0  # leases reclaimed from us mid-computation
    digests: list[str] = field(default_factory=list)


def drain_jobs(
    store: ResultStore,
    manager: LeaseManager,
    jobs: Iterable[PointJob],
    *,
    stats: WorkerStats,
    seconds: Histogram,
    max_points: int | None = None,
    stop: threading.Event | None = None,
) -> None:
    """Claim, compute and commit ``jobs`` until each has a record.

    Returns once every job's record is committed in ``store`` (some
    computed here, some by other workers), before claiming a job once
    ``stats.computed`` reaches ``max_points``, or before a pass once
    ``stop`` is set: a stopping service leaves its job uncommitted,
    even one a live peer's lease would otherwise keep it waiting on.
    Each computation (heartbeat and trials, not the commit) is timed
    into ``seconds``; the lease heartbeat fires every ``manager.ttl /
    4`` seconds.  An exception from a computation propagates after the
    lease is released.
    """
    # Per-outcome counters; cumulative, process-wide.
    registry = get_registry()
    outcomes = {
        outcome: registry.counter("repro_sched_points_total", outcome=outcome)
        for outcome in ("computed", "resumed_skip", "lease_denied", "lost_lease")
    }
    outstanding = list(jobs)
    while outstanding and not (stop is not None and stop.is_set()):
        denied = []
        progressed = False
        for job in outstanding:
            if store.has_record(job.digest):
                continue
            if max_points is not None and stats.computed >= max_points:
                return
            lease = manager.try_claim(job.digest)
            if lease is None:
                stats.lease_denied += 1
                outcomes["lease_denied"].inc()
                denied.append(job)
                continue
            try:
                # The reclaimed holder may have committed after our
                # staleness check — the record, not the lease, decides.
                if store.has_record(job.digest):
                    stats.resumed_skips += 1
                    outcomes["resumed_skip"].inc()
                    progressed = True
                    continue
                started = obs_monotonic()
                with lease.heartbeat(manager.ttl / 4.0) as lost:
                    with obs_span("sched_point", digest=job.digest, label=job.label):
                        summary = job.compute()
                seconds.observe(obs_monotonic() - started)
                # Commit even when the lease was lost: the digest pins
                # the content, so a double commit writes identical bytes.
                arrays, meta = job.point_record(summary)
                with obs_span("sched_commit", digest=job.digest):
                    store.write_record(job.digest, arrays, meta)
                if lost.is_set():
                    stats.lost_leases += 1
                    outcomes["lost_lease"].inc()
                stats.computed += 1
                outcomes["computed"].inc()
                stats.digests.append(job.digest)
                progressed = True
            finally:
                lease.release()
        outstanding = denied
        if outstanding and not progressed:
            # Everything pending is leased by live workers — wait for
            # them to commit (or for their heartbeats to go stale).
            time.sleep(IDLE_SLEEP_S)


def run_worker(
    store: ResultStore | str,
    grid: GridSpec,
    *,
    ttl: float = DEFAULT_LEASE_TTL,
    max_points: int | None = None,
    worker_id: str | None = None,
) -> WorkerStats:
    """Drain a grid's frontier until every point is committed.

    Returns once every point of ``grid`` has a committed record in
    ``store`` (some computed here, some by other workers), or after
    committing ``max_points`` new points (``0`` computes none).  The
    lease heartbeat fires every ``ttl / 4`` seconds.
    """
    if max_points is not None:
        max_points = check_integer("max_points", max_points, minimum=0)
    store = ResultStore.coerce(store)
    manager = LeaseManager(store.sched_dir / grid.grid_digest(), ttl=ttl, worker_id=worker_id)
    stats = WorkerStats()
    drain_jobs(
        store,
        manager,
        grid.points(),
        stats=stats,
        seconds=get_registry().histogram("repro_sched_point_seconds"),
        max_points=max_points,
    )
    return stats
