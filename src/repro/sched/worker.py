"""The worker loop: claim a pending grid point, execute, commit, repeat.

One invocation of :func:`run_worker` drains as much of a grid's
frontier as it can get leases for.  The loop per pass over the points:

1. **Skip** points whose record is already committed (the store is the
   single source of truth — a lease is only ever an optimization to
   avoid duplicate work, never a correctness requirement).
2. **Claim** the next pending point via ``O_EXCL`` lease creation,
   reclaiming leases whose heartbeat went silent for a TTL
   (:mod:`repro.sched.leases`).
3. **Re-check** the record after claiming — the previous holder may
   have committed between our staleness check and the reclaim.
4. **Execute** the point exactly as a store-backed ``sweep_scenario``
   would (same seed derivation, same label, same closeness inputs,
   same merged run kwargs, same lane count), heartbeating the lease
   from a daemon thread throughout.
5. **Commit** the digest-keyed record atomically, then release the
   lease.

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
from typing import Any, Callable

from repro.obs import get_registry
from repro.obs import monotonic as obs_monotonic
from repro.obs import span as obs_span
from repro.scenario.runner import ScenarioFactory, resolve_batch
from repro.sim.pi_cache import SharedPiCache
from repro.sim.runner import run_trials
from repro.store import ResultStore

from repro.sched.grid import GridPoint, GridSpec, point_record
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
    heartbeat_interval: float | None = None,
    shared_pi_cache: SharedPiCache | bool | None = None,
    max_points: int | None = None,
    worker_id: str | None = None,
    on_point: Callable[[GridPoint, WorkerStats], None] | None = None,
) -> WorkerStats:
    """Drain a grid's frontier until every point is committed.

    Returns once every point of ``grid`` has a committed record in
    ``store`` (some computed here, some by other workers), or after
    committing ``max_points`` new points.  ``poll`` is the idle sleep
    while waiting on points other workers hold leases for; the lease
    heartbeat fires every ``heartbeat_interval`` seconds (default
    ``ttl / 4``).  ``shared_pi_cache=True`` attaches a cross-point join
    kernel cache whose disk tier lives inside the store.
    """
    store = ResultStore.coerce(store)
    if heartbeat_interval is None:
        heartbeat_interval = ttl / 4.0
    pi_cache: SharedPiCache | None
    if shared_pi_cache is True:
        pi_cache = SharedPiCache(disk=store.pi_cache())
    elif isinstance(shared_pi_cache, SharedPiCache):
        pi_cache = shared_pi_cache
    else:
        pi_cache = None

    grid_dir = store.sched_dir / grid.grid_digest()
    manager = LeaseManager(grid_dir, ttl=ttl, worker_id=worker_id)
    gamma_star, total_demand = grid.closeness_inputs()
    run_params = grid.run_params
    batch = resolve_batch(grid.spec)
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
        for point in grid.points():
            if store.has_record(point.digest):
                continue
            outstanding += 1
            lease = manager.try_claim(point.digest)
            if lease is None:
                stats.lease_denied += 1
                outcomes["lease_denied"].inc()
                continue
            try:
                # The reclaimed holder may have committed after our
                # staleness check — the record, not the lease, decides.
                if store.has_record(point.digest):
                    stats.resumed_skips += 1
                    outcomes["resumed_skip"].inc()
                    progressed = True
                    continue
                started = obs_monotonic()
                with lease.heartbeat(heartbeat_interval) as lost:
                    with obs_span("sched_point", digest=point.digest, label=point.label):
                        summary = run_trials(
                            ScenarioFactory(point.spec, pi_cache),
                            grid.rounds,
                            grid.trials,
                            seed=point.seed,
                            label=point.label,
                            gamma_star=gamma_star,
                            total_demand=total_demand,
                            batch=batch,
                            keep_results=False,
                            params=dict(point.coords),
                            **run_params,
                        )
                point_seconds.observe(obs_monotonic() - started)
                # Commit even when the lease was lost: the digest pins
                # the content, so a double commit writes identical bytes.
                arrays, meta = point_record(point, summary)
                with obs_span("sched_commit", digest=point.digest):
                    store.write_record(point.digest, arrays, meta)
                if lost.is_set():
                    stats.lost_leases += 1
                    outcomes["lost_lease"].inc()
                stats.computed += 1
                outcomes["computed"].inc()
                stats.digests.append(point.digest)
                progressed = True
                if on_point is not None:
                    on_point(point, stats)
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


def execute_point(
    point: GridPoint,
    grid: GridSpec,
    *,
    shared_pi_cache: SharedPiCache | None = None,
) -> dict[str, Any]:
    """Compute one point in isolation (no store, no lease) — test hook."""
    gamma_star, total_demand = grid.closeness_inputs()
    summary = run_trials(
        ScenarioFactory(point.spec, shared_pi_cache),
        grid.rounds,
        grid.trials,
        seed=point.seed,
        label=point.label,
        gamma_star=gamma_star,
        total_demand=total_demand,
        batch=resolve_batch(grid.spec),
        keep_results=False,
        params=dict(point.coords),
        **grid.run_params,
    )
    arrays, meta = point_record(point, summary)
    return {"summary": summary, "arrays": arrays, "meta": meta}
