"""The service core: digest-keyed dedup queue + lease-guarded worker pool.

:class:`ScenarioService` is the piece between the HTTP layer and the
store.  ``submit`` computes the request's sweep-point digest and then:

* **hit** — the store already holds the record: served immediately, no
  queue slot consumed (committed digests are never refused, even under
  back pressure);
* **pending** — the same digest is already queued or being computed:
  the request *coalesces* onto the in-flight computation (the dedup
  multiplier: N identical concurrent submissions cost one simulation);
* **queued** — genuinely new work: enqueued for the worker pool, or
  refused with :class:`~repro.exceptions.ServiceBusy` once
  ``max_pending`` requests are outstanding (back pressure).

Each worker thread drains a request's :class:`~repro.scenario.PointJob`
— the job a store-backed sweep or a :mod:`repro.sched` worker runs for
the same point — through the grid worker's lease loop
(:func:`repro.sched.worker.drain_jobs`, with leases under
``<store>/sched/serve/``), so a record is byte-identical no matter
which path computed it.  Several service processes may front one
store: a digest another process holds a live lease on is retried until
that process commits it, a crashed process's lease is reclaimed after
the TTL, and the digest-keyed idempotent commit makes the
double-execution worst case harmless.

The service is synchronous and thread-based on purpose: simulations are
CPU-bound, so the asyncio layer (:mod:`repro.serve.http`) stays
responsive by keeping computations in plain daemon threads and only
polling their results.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Any

from repro.exceptions import ServiceBusy
from repro.obs import get_registry
from repro.scenario.runner import PointJob
from repro.sched.leases import DEFAULT_LEASE_TTL, LeaseManager
from repro.sched.worker import WorkerStats, drain_jobs
from repro.serve.request import ScenarioRequest
from repro.store import ResultStore

__all__ = ["DEFAULT_MAX_PENDING", "ScenarioService", "ServiceStatus"]

#: Queue-depth cap before ``submit`` answers back pressure.  Sized for
#: "a burst of distinct cold requests", not for sustained overload: at
#: service throughput (seconds per point) a deeper queue only converts
#: client timeouts into silent staleness.
DEFAULT_MAX_PENDING = 256

#: Subdirectory of the store's sched area holding the service's leases
#: (kept apart from grid leases, which live under per-grid digests).
SERVE_LEASE_DIR = "serve"


@dataclass(frozen=True)
class ServiceStatus:
    """One consistent snapshot of the service's counters (``GET /status``)."""

    queue_depth: int
    workers: int
    workers_alive: int
    hits: int
    misses: int
    coalesced: int
    computed: int
    failed: int
    lease_denied: int
    reclaimed: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "queue_depth": self.queue_depth,
            "workers": self.workers,
            "workers_alive": self.workers_alive,
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "computed": self.computed,
            "failed": self.failed,
            "lease_denied": self.lease_denied,
            "reclaimed": self.reclaimed,
        }


class ScenarioService:
    """Digest-keyed scenario computations over one :class:`ResultStore`.

    Parameters
    ----------
    store:
        The result store (or its directory) served and written.
    workers:
        Worker threads draining the queue.  ``0`` is allowed (accept +
        dedup only — used by tests and by back-pressure drills).
    ttl:
        Lease TTL: how long a crashed process's in-flight request stays
        claimed before another service process may reclaim it.
    max_pending:
        Back-pressure threshold for :meth:`submit`.
    """

    def __init__(
        self,
        store: ResultStore | str,
        *,
        workers: int = 2,
        ttl: float = DEFAULT_LEASE_TTL,
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers!r}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending!r}")
        self.store = ResultStore.coerce(store)
        self.ttl = float(ttl)
        self.max_pending = int(max_pending)
        self._queue: queue.Queue[str | None] = queue.Queue()
        self._lock = threading.Lock()
        self._pending: dict[str, PointJob] = {}
        self._failed: dict[str, str] = {}
        self._hits = 0
        self._misses = 0
        self._coalesced = 0
        self._failures = 0
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []
        # One per worker thread ever started; /status sums them.
        self._worker_stats: list[WorkerStats] = []
        self._n_workers = int(workers)
        # One manager (and lease dir) shared by every service process
        # fronting this store; constructed eagerly so `is_leased` works
        # even on a workerless service.
        self._manager = LeaseManager(
            self.store.sched_dir / SERVE_LEASE_DIR, ttl=self.ttl, worker_id="serve"
        )

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> None:
        """Start the worker pool (idempotent)."""
        with self._lock:
            if self._threads or self._n_workers == 0:
                return
            self._stopping.clear()
            for index in range(self._n_workers):
                stats = WorkerStats()
                thread = threading.Thread(
                    target=self._worker_loop,
                    args=(index, stats),
                    name=f"serve-worker-{index}",
                    daemon=True,
                )
                self._worker_stats.append(stats)
                self._threads.append(thread)
        for thread in self._threads:
            thread.start()

    def stop(self, *, timeout: float = 5.0) -> None:
        """Stop workers after their current computation (idempotent).

        A worker waiting on another process's lease stops waiting; its
        request is dropped from the pending map, uncomputed.
        """
        with self._lock:
            threads, self._threads = self._threads, []
            self._stopping.set()
        for _ in threads:
            self._queue.put(None)  # one wake-up token per worker
        for thread in threads:
            thread.join(timeout=timeout)

    def __enter__(self) -> "ScenarioService":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission / lookup

    def submit(self, request: ScenarioRequest) -> tuple[str, str]:
        """Accept one request; returns ``(digest, disposition)``.

        Disposition is ``"hit"`` (record committed — read it from the
        store), ``"pending"`` (coalesced onto in-flight work) or
        ``"queued"`` (newly enqueued).  Raises :class:`ServiceBusy` when
        the request needs a queue slot and none is left.
        """
        digest = request.digest()
        registry = get_registry()
        if self.store.has_record(digest):
            with self._lock:
                self._hits += 1
            registry.counter("repro_serve_requests_total", disposition="hit").inc()
            return digest, "hit"
        with self._lock:
            if digest in self._pending:
                self._coalesced += 1
                registry.counter("repro_serve_requests_total", disposition="coalesced").inc()
                return digest, "pending"
            if len(self._pending) >= self.max_pending:
                registry.counter("repro_serve_requests_total", disposition="busy").inc()
                raise ServiceBusy(
                    f"{len(self._pending)} requests pending (max_pending="
                    f"{self.max_pending}); retry later"
                )
            self._misses += 1
            self._failed.pop(digest, None)  # resubmission retries a failure
            self._pending[digest] = request.job
        registry.counter("repro_serve_requests_total", disposition="queued").inc()
        self._queue.put(digest)
        return digest, "queued"

    def state_of(self, digest: str) -> str:
        """``"committed"`` / ``"pending"`` / ``"failed"`` / ``"unknown"``.

        A digest leased by *another* service process on the same store
        reports ``"pending"`` too — cross-process coalescing: the poll
        loop a client runs is the same either way.

        The pending map and the lease are read *before* the store: a
        worker commits the record before it releases the lease and pops
        the digest from the pending map, so a poll that finds neither
        is guaranteed to see the commit.  Reading the store first would
        leave a window (commit not yet visible, then the pop) in which a
        finished computation reads as ``"unknown"``.
        """
        with self._lock:
            if digest in self._pending:
                return "pending"
        if self._manager.is_leased(digest):
            return "pending"
        if self.store.has_record(digest):
            return "committed"
        with self._lock:
            if digest in self._failed:
                return "failed"
        return "unknown"

    def failure_of(self, digest: str) -> str | None:
        """The recorded error for a failed digest, if any."""
        with self._lock:
            return self._failed.get(digest)

    def status(self) -> ServiceStatus:
        with self._lock:
            alive = sum(1 for t in self._threads if t.is_alive())
            return ServiceStatus(
                queue_depth=len(self._pending),
                workers=self._n_workers,
                workers_alive=alive,
                hits=self._hits,
                misses=self._misses,
                coalesced=self._coalesced,
                computed=sum(stats.computed for stats in self._worker_stats),
                failed=self._failures,
                lease_denied=sum(stats.lease_denied for stats in self._worker_stats),
                reclaimed=self._manager.reclaimed_count(),
            )

    # ------------------------------------------------------------------
    # Worker side

    def _worker_loop(self, index: int, stats: WorkerStats) -> None:
        manager = LeaseManager(
            self.store.sched_dir / SERVE_LEASE_DIR,
            ttl=self.ttl,
            worker_id=f"serve-{index}",
        )
        seconds = get_registry().histogram("repro_serve_compute_seconds")
        while (digest := self._queue.get()) is not None:
            with self._lock:
                job = None if self._stopping.is_set() else self._pending.get(digest)
            try:
                if job is not None:
                    drain_jobs(
                        self.store,
                        manager,
                        [job],
                        stats=stats,
                        seconds=seconds,
                        stop=self._stopping,
                    )
                    stats.digests.clear()  # unread here; keeps a long-lived thread flat
            except Exception as exc:  # noqa: BLE001 — failures become responses
                with self._lock:
                    self._failures += 1
                    self._failed[digest] = f"{type(exc).__name__}: {exc}"
            finally:
                # After the commit and the lease release: a poll that
                # finds the digest neither pending nor leased sees it.
                with self._lock:
                    self._pending.pop(digest, None)
