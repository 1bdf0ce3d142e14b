"""Grid orchestration: persist grids, spawn workers, watch the frontier.

The scheduler side of :mod:`repro.sched` is deliberately thin, because
the hard guarantees live below it (content-addressed records, lease
reclaim).  It does four things:

* :func:`init_grid` writes the grid manifest
  (``<store>/sched/<grid digest>/grid.json``) so any process — or any
  machine sharing the filesystem — can :func:`load_grid` and start
  working with no channel beyond the store directory.
* :func:`grid_status` classifies every point of the frontier as
  committed / leased / pending by looking only at the filesystem, so
  ``sched status`` works while workers are running (or after they all
  died).
* :func:`run_grid` drives a complete run: ``workers=0`` drains the grid
  in-process (no multiprocessing, the fully deterministic path);
  ``workers=N`` spawns N local worker processes and re-reads the
  frontier whenever one exits (and every ``progress_interval`` for live
  progress reporting), so a drain returns as soon as its last point
  commits.  Orchestration is *stateless* — killing the orchestrator (or
  any worker) and re-running resumes exactly where the committed
  frontier stopped.
* :func:`collect_grid` loads every committed record back into
  :class:`TrialSummary` objects once the frontier is drained.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any, Callable

import numpy as np
import numpy.typing as npt

from repro.exceptions import SchedulerError
from repro.sim.runner import SweepResult, TrialSummary
from repro.store import ResultStore
from repro.store.records import atomic_write_bytes

from repro.sched.grid import GridSpec
from repro.sched.leases import DEFAULT_LEASE_TTL, LeaseManager
from repro.sched.worker import run_worker

__all__ = [
    "GRID_MANIFEST",
    "GridResult",
    "collect_grid",
    "grid_status",
    "init_grid",
    "load_grid",
    "run_grid",
]

GRID_MANIFEST = "grid.json"


# ----------------------------------------------------------------------
# Grid persistence


def init_grid(store: ResultStore | str, grid: GridSpec) -> Path:
    """Persist ``grid`` under the store; returns its directory.

    Idempotent: the manifest is written atomically under the grid's own
    content digest, so two racing inits of the same grid converge on
    identical bytes and distinct grids never collide.
    """
    store = ResultStore.coerce(store)
    grid_dir = store.sched_dir / grid.grid_digest()
    grid_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(
        grid_dir / GRID_MANIFEST, (grid.to_json() + "\n").encode("utf-8")
    )
    return grid_dir


def load_grid(store: ResultStore | str, digest: str | None = None) -> GridSpec:
    """Load a persisted grid; auto-discovers when the store has one grid.

    Raises :class:`SchedulerError` when the store has no grid, when
    ``digest`` names a missing one, or when auto-discovery is ambiguous.
    """
    store = ResultStore.coerce(store)
    if digest is not None:
        manifest = store.sched_dir / digest / GRID_MANIFEST
        if not manifest.is_file():
            raise SchedulerError(
                f"no grid {digest!r} under {store.sched_dir} — run "
                "'sched run --init-only' (or init_grid) there first"
            )
        return GridSpec.from_json(manifest.read_text(encoding="utf-8"))
    manifests = sorted(store.sched_dir.glob(f"*/{GRID_MANIFEST}"))
    if not manifests:
        raise SchedulerError(
            f"no grids under {store.sched_dir} — run 'sched run --init-only' "
            "(or init_grid) there first"
        )
    if len(manifests) > 1:
        digests = [p.parent.name for p in manifests]
        raise SchedulerError(
            f"{len(manifests)} grids under {store.sched_dir}; pick one with "
            f"--grid: {digests}"
        )
    return GridSpec.from_json(manifests[0].read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Frontier status


def grid_status(
    store: ResultStore | str,
    grid: GridSpec,
    *,
    ttl: float = DEFAULT_LEASE_TTL,
) -> dict[str, Any]:
    """Classify the frontier: committed / leased / pending counts.

    ``leased`` counts points with a *fresh* lease and no committed
    record; a stale lease reads as pending (it will be reclaimed by the
    next worker that reaches it).  ``reclaimed`` is the grid-lifetime
    count of lease takeovers from the reclaim log.
    """
    store = ResultStore.coerce(store)
    grid_digest = grid.grid_digest()
    manager = LeaseManager(store.sched_dir / grid_digest, ttl=ttl)
    committed = leased = pending = 0
    for point in grid.points():
        if store.has_record(point.digest):
            committed += 1
        elif manager.is_leased(point.digest):
            leased += 1
        else:
            pending += 1
    total = grid.n_points
    return {
        "grid": grid_digest,
        "total": total,
        "committed": committed,
        "leased": leased,
        "pending": pending,
        "reclaimed": manager.reclaimed_count(),
        "done": committed == total,
    }


def format_status(status: dict[str, Any]) -> str:
    """One-line frontier counter for live progress output."""
    return (
        f"{status['committed']}/{status['total']} committed  "
        f"{status['leased']} leased  {status['pending']} pending  "
        f"{status['reclaimed']} reclaimed"
    )


# ----------------------------------------------------------------------
# Orchestration


def _worker_main(
    root: str,
    grid_digest: str,
    ttl: float,
    worker_id: str,
) -> None:
    """Entry point of a spawned worker process (module-level: picklable)."""
    store = ResultStore(root)
    grid = load_grid(store, grid_digest)
    run_worker(store, grid, ttl=ttl, worker_id=worker_id)


def run_grid(
    store: ResultStore | str,
    grid: GridSpec,
    *,
    workers: int = 0,
    ttl: float = DEFAULT_LEASE_TTL,
    shared_pi_cache: bool = False,
    progress: Callable[[dict[str, Any]], None] | None = None,
    progress_interval: float = 0.5,
) -> dict[str, Any]:
    """Run ``grid`` to completion; returns the final status dict.

    ``workers=0`` drains the frontier in this process — the
    deterministic, debuggable path.  ``workers=N`` spawns N local
    worker processes (the multi-machine analogue is N ``sched work``
    invocations against the same directory) and waits on them, reading
    the frontier each time a worker exits and at least every
    ``progress_interval`` seconds, invoking ``progress`` with each
    status snapshot.  A worker exits only once every point is committed
    (or when it crashes), so the drain ends with the first exit after
    the last commit.

    Raises :class:`SchedulerError` if every worker exits while points
    remain uncommitted and unleased (e.g. all workers crashed) — the
    store keeps the committed prefix, so re-running resumes.

    ``shared_pi_cache`` is accepted and ignored.  It used to attach a
    cross-point join cache to each worker; every process now reads one
    join-distribution store (see
    :class:`repro.sim.counting.JoinDistributionCache`), so that reuse is
    always on.  The keyword stays only because the repository benchmark
    (``perfbench/workloads.py``) still passes it.
    """
    store = ResultStore.coerce(store)
    init_grid(store, grid)

    if workers <= 0:
        stats = run_worker(store, grid, ttl=ttl)
        status = grid_status(store, grid, ttl=ttl)
        status["computed"] = stats.computed
        if progress is not None:
            progress(status)
        return status

    # "fork" keeps worker start cheap and inherits the warmed import
    # state; fall back to the platform default elsewhere.
    ctx: multiprocessing.context.BaseContext
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context()
    grid_digest = grid.grid_digest()
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(str(store.root), grid_digest, ttl, f"w{i}"),
            name=f"sched-worker-{i}",
        )
        for i in range(workers)
    ]
    for proc in procs:
        proc.start()
    live = list(procs)
    try:
        while True:
            status = grid_status(store, grid, ttl=ttl)
            if progress is not None:
                progress(status)
            if status["done"]:
                return status
            if not live:
                # Every worker had exited before this snapshot, so no
                # commit can still land: they crashed with work left.
                raise SchedulerError(
                    f"all {workers} workers exited with "
                    f"{status['pending'] + status['leased']} point(s) "
                    f"uncommitted (exit codes "
                    f"{[proc.exitcode for proc in procs]}); the committed "
                    "frontier is preserved — re-run to resume"
                )
            # An exited worker's sentinel stays ready: wait on the live
            # ones only, or one early exit would turn this into a spin.
            ready = wait([proc.sentinel for proc in live], timeout=progress_interval)
            live = [proc for proc in live if proc.sentinel not in ready]
    finally:
        for proc in procs:
            proc.join(timeout=30.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join()


# ----------------------------------------------------------------------
# Collection


@dataclass(frozen=True)
class GridResult:
    """Every committed point of a drained grid, in canonical order."""

    grid: GridSpec
    summaries: list[TrialSummary]

    def series(self, attribute: str = "mean_average_regret") -> npt.NDArray[np.float64]:
        """One summary statistic per point, in grid (row-major) order.

        Reshape with ``.reshape(grid.shape)`` to index by axis value.
        """
        return np.array(
            [getattr(s, attribute) for s in self.summaries], dtype=np.float64
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(axis.values) for axis in self.grid.axes)

    def as_sweep_result(self) -> SweepResult:
        """Single-axis grids as the classic :class:`SweepResult`."""
        if len(self.grid.axes) != 1:
            raise SchedulerError(
                f"as_sweep_result needs a single-axis grid, this one has "
                f"{len(self.grid.axes)} axes"
            )
        axis = self.grid.axes[0]
        return SweepResult(
            parameter=axis.parameter,
            values=list(axis.values),
            summaries=list(self.summaries),
            resumed=[True] * len(self.summaries),
        )


def collect_grid(store: ResultStore | str, grid: GridSpec) -> GridResult:
    """Load every point's committed summary; raises if any is missing."""
    store = ResultStore.coerce(store)
    summaries = []
    missing = []
    for job in grid.points():
        summary = job.read(store)
        if summary is None:
            missing.append(job.label)
        else:
            summaries.append(summary)
    if missing:
        raise SchedulerError(
            f"grid has {len(missing)} uncommitted point(s) "
            f"(first: {missing[0]!r}) — drain it with run_grid or "
            "'sched work' before collecting"
        )
    return GridResult(grid=grid, summaries=summaries)
