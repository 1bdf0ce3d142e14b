"""The worker loop: claim a pending grid point, execute, commit, repeat.

One invocation of :func:`run_worker` drains as much of a grid's
frontier as it can get leases for.  Each pass visits only the points
the previous pass left outstanding (denied a lease); a pass that claims
nothing sleeps :data:`IDLE_SLEEP_S` before the next.  Per point:

1. **Skip** points whose record is already committed (the store is the
   single source of truth — a lease is only ever an optimization to
   avoid duplicate work, never a correctness requirement).  A record
   whose payload is missing or unreadable is not committed
   (:meth:`~repro.store.ResultStore.has_record`), so it is recomputed.
2. **Claim** the next pending point via ``O_EXCL`` lease creation,
   reclaiming leases whose heartbeat went silent for a TTL
   (:mod:`repro.sched.leases`).
3. **Re-check** the record after claiming — the previous holder may
   have committed between our staleness check and the reclaim.
4. **Compute** the point's :class:`~repro.scenario.PointJob` — the
   same job a store-backed ``sweep_scenario`` runs for it —
   heartbeating the lease from a daemon thread throughout.
5. **Commit** the job's digest-keyed record atomically, then release
   the lease.

A worker that is SIGKILL'd anywhere in this loop leaves at most one
stale lease and some invisible temp files; both are reclaimed/swept by
other workers and ``gc``, and the recomputed record is byte-identical
— see the chaos tests.

Workers never coordinate beyond the shared filesystem: run several
``repro-experiments sched work`` processes on machines sharing the
store directory and they cooperate exactly like local ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs import get_registry
from repro.obs import monotonic as obs_monotonic
from repro.obs import span as obs_span
from repro.store import ResultStore

from repro.sched.grid import GridSpec
from repro.sched.leases import DEFAULT_LEASE_TTL, LeaseManager

__all__ = ["IDLE_SLEEP_S", "WorkerStats", "run_worker"]

#: Sleep after a pass that claimed nothing: every outstanding point is
#: leased by a live peer, which commits or goes stale in its own time.
IDLE_SLEEP_S = 0.01


@dataclass
class WorkerStats:
    """What one :func:`run_worker` invocation did."""

    computed: int = 0
    resumed_skips: int = 0  # points found committed before claiming
    lease_denied: int = 0  # points another worker held fresh leases on
    lost_leases: int = 0  # leases reclaimed from us mid-computation
    digests: list[str] = field(default_factory=list)


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
    committing ``max_points`` new points.  The lease heartbeat fires
    every ``ttl / 4`` seconds.
    """
    store = ResultStore.coerce(store)
    grid_dir = store.sched_dir / grid.grid_digest()
    manager = LeaseManager(grid_dir, ttl=ttl, worker_id=worker_id)
    stats = WorkerStats()
    # Per-outcome counters + point latency; cumulative, process-wide.
    registry = get_registry()
    outcomes = {
        outcome: registry.counter("repro_sched_points_total", outcome=outcome)
        for outcome in ("computed", "resumed_skip", "lease_denied", "lost_lease")
    }
    point_seconds = registry.histogram("repro_sched_point_seconds")

    outstanding = list(grid.points())
    while outstanding:
        denied = []
        progressed = False
        for job in outstanding:
            if store.has_record(job.digest):
                continue
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
                with lease.heartbeat(ttl / 4.0) as lost:
                    with obs_span("sched_point", digest=job.digest, label=job.label):
                        summary = job.compute()
                point_seconds.observe(obs_monotonic() - started)
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
            if max_points is not None and stats.computed >= max_points:
                return stats
        outstanding = denied
        if outstanding and not progressed:
            # Everything pending is leased by live workers — wait for
            # them to commit (or for their heartbeats to go stale).
            time.sleep(IDLE_SLEEP_S)
    return stats
