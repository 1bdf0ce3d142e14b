"""Lease files: crash-tolerant exclusive claims on grid points.

A worker *claims* a grid point by creating
``<grid_dir>/leases/<point digest>.lease`` with ``O_CREAT | O_EXCL`` —
the one filesystem primitive that is atomic on every local and NFS
filesystem we care about.  The file's single JSON line records the
owner (:func:`repro.store.owner_token`: host, pid, acquire time), and
its **mtime is the heartbeat**: the owner refreshes it with
``os.utime`` while computing, and any other worker may reclaim a lease
whose mtime is older than the TTL (the owner was SIGKILL'd, lost the
machine, or hung).

Reclaim uses :func:`repro.store.break_stale`'s rename-steal protocol:
rename the lease aside to a unique name, re-check staleness on the
stolen file, and either unlink it or put it back.  Two reclaimers can
race; exactly one wins the rename, and a live owner that refreshes at
the wrong moment is restored, never deleted.  The worst case is a
point being executed twice — which is *safe*, because commits are
digest-keyed atomic records with deterministic bytes: both executions
produce the identical record and the last rename wins harmlessly.
That idempotence, not locking, is what makes the scheduler's
crash-recovery guarantee hold (see ``tests/sched``'s byte-identity
proofs).

Reclaims are logged to ``<grid_dir>/reclaimed.log`` (one canonical
JSON line per event, ``O_APPEND`` so concurrent writers interleave
whole lines) so ``sched status`` can report how many points were
rescued from dead workers.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.obs import event as obs_event
from repro.obs import get_registry
from repro.store import (
    LEASE_SUFFIX,
    break_stale,
    canonical_json,
    owner_token,
    read_owner,
    write_owner_file,
)
from repro.util.validation import check_in_range

__all__ = ["DEFAULT_LEASE_TTL", "Lease", "LeaseManager"]

#: Seconds without a heartbeat after which a lease may be reclaimed.
#: Generous relative to heartbeats (every ``ttl / 4``) so a paused
#: worker is not preempted by a scheduling hiccup, short enough that a
#: killed worker's points are re-leased promptly.
DEFAULT_LEASE_TTL = 60.0

RECLAIM_LOG = "reclaimed.log"


@dataclass
class Lease:
    """A held claim on one grid point; refresh it or lose it."""

    path: Path
    token: dict[str, Any]

    def refresh(self) -> bool:
        """Heartbeat: bump mtime iff we still own the lease.

        Returns ``False`` (without touching anything) when the lease
        was reclaimed from under us — the worker should finish its
        current point (the commit is idempotent) but must not fight
        for the lease back.
        """
        if read_owner(self.path) != self.token:
            return False
        try:
            os.utime(self.path)
        except OSError:
            return False
        get_registry().counter("repro_sched_heartbeats_total").inc()
        return True

    def release(self) -> bool:
        """Drop the claim; no-op if it was already reclaimed."""
        if read_owner(self.path) != self.token:
            return False
        try:
            self.path.unlink()
        except OSError:
            return False
        return True

    @contextmanager
    def heartbeat(self, interval: float) -> Iterator[threading.Event]:
        """Refresh every ``interval`` s from a daemon thread.

        Yields an :class:`~threading.Event` that is set if the lease is
        lost mid-computation (informational — committing is still
        correct, claiming new work with a stale identity is not).
        """
        lost = threading.Event()
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(interval):
                if not self.refresh():
                    lost.set()
                    return

        thread = threading.Thread(target=beat, name="lease-heartbeat", daemon=True)
        thread.start()
        try:
            yield lost
        finally:
            stop.set()
            thread.join()


@dataclass
class LeaseManager:
    """Claims points of one grid directory on behalf of one worker."""

    grid_dir: Path
    ttl: float = DEFAULT_LEASE_TTL
    worker_id: str | None = None
    _lease_dir: Path = field(init=False)

    def __post_init__(self) -> None:
        self.grid_dir = Path(self.grid_dir)
        # NaN or +inf would never go stale (and spin or kill the heartbeat).
        self.ttl = check_in_range(
            "lease ttl", self.ttl, 0.0, math.inf, inclusive_low=False, inclusive_high=False
        )
        self._lease_dir = self.grid_dir / "leases"
        self._lease_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def lease_path(self, digest: str) -> Path:
        return self._lease_dir / f"{digest}{LEASE_SUFFIX}"

    def _token(self) -> dict[str, Any]:
        token = owner_token()
        if self.worker_id is not None:
            token["worker"] = str(self.worker_id)
        return token

    def try_claim(self, digest: str) -> Lease | None:
        """Claim a point, reclaiming a stale lease if one blocks us.

        Returns ``None`` when another worker holds a *fresh* lease (or
        wins the race for a stale one) — the caller just moves on to
        the next pending point.
        """
        path = self.lease_path(digest)
        for _ in range(2):
            token = self._token()
            if write_owner_file(path, token):
                return Lease(path=path, token=token)
            evicted = break_stale(path, self.ttl)
            if evicted is None:
                return None
            self._log_reclaim(digest, evicted)
        return None

    def holder(self, digest: str) -> dict[str, Any] | None:
        """Current owner token of a point's lease, if any."""
        return read_owner(self.lease_path(digest))

    def is_leased(self, digest: str) -> bool:
        """True iff a lease exists and its heartbeat is within the TTL."""
        path = self.lease_path(digest)
        try:
            stat = path.stat()
        except OSError:
            return False
        # Lease freshness is the mtime heartbeat against the wall clock.
        return (time.time() - stat.st_mtime) <= self.ttl  # repro-lint: disable=RPR002

    # ------------------------------------------------------------------
    def _log_reclaim(self, digest: str, evicted: dict[str, Any]) -> None:
        get_registry().counter("repro_sched_reclaims_total").inc()
        obs_event("sched_reclaim", digest=digest)
        line = canonical_json(
            {
                "digest": digest,
                "evicted": evicted,
                "by": self._token(),
            }
        )
        fd = os.open(
            self.grid_dir / RECLAIM_LOG,
            os.O_WRONLY | os.O_CREAT | os.O_APPEND,
            0o644,
        )
        try:
            os.write(fd, line.encode("utf-8") + b"\n")
        finally:
            os.close(fd)

    def reclaim_events(self) -> list[dict[str, Any]]:
        """Parsed reclaim log (empty when nothing was ever reclaimed)."""
        try:
            text = (self.grid_dir / RECLAIM_LOG).read_text(encoding="utf-8")
        except OSError:
            return []
        events = []
        for line in text.splitlines():
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn final line from a killed writer
        return events

    def reclaimed_count(self) -> int:
        return len(self.reclaim_events())
