"""The worker loop: claim a pending grid point, execute, commit, repeat.

One invocation of :func:`run_worker` drains as much of a grid's
frontier as it can get leases for.  The loop per pass over the points:

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
from repro.sim.pi_cache import SharedPiCache
from repro.store import ResultStore

from repro.sched.grid import GridSpec
from repro.sched.leases import DEFAULT_LEASE_TTL, LeaseManager

__all__ = ["WorkerStats", "run_worker"]


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
    poll: float = 0.2,
    shared_pi_cache: SharedPiCache | bool | None = None,
    max_points: int | None = None,
    worker_id: str | None = None,
) -> WorkerStats:
    """Drain a grid's frontier until every point is committed.

    Returns once every point of ``grid`` has a committed record in
    ``store`` (some computed here, some by other workers), or after
    committing ``max_points`` new points.  ``poll`` is the idle sleep
    while waiting on points other workers hold leases for; the lease
    heartbeat fires every ``ttl / 4`` seconds.  ``shared_pi_cache=True``
    attaches a cross-point join kernel cache whose disk tier lives
    inside the store.
    """
    store = ResultStore.coerce(store)
    pi_cache: SharedPiCache | None
    if shared_pi_cache is True:
        pi_cache = SharedPiCache(disk=store.pi_cache())
    elif isinstance(shared_pi_cache, SharedPiCache):
        pi_cache = shared_pi_cache
    else:
        pi_cache = None

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

    while True:
        outstanding = 0
        progressed = False
        for job in grid.points():
            if store.has_record(job.digest):
                continue
            outstanding += 1
            lease = manager.try_claim(job.digest)
            if lease is None:
                stats.lease_denied += 1
                outcomes["lease_denied"].inc()
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
                        summary = job.compute(pi_cache)
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
        if outstanding == 0:
            return stats
        if not progressed:
            # Everything pending is leased by live workers — wait for
            # them to commit (or for their heartbeats to go stale).
            time.sleep(poll)
