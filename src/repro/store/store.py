""":class:`ResultStore` — the content-addressed store root on disk.

Layout (everything lives under one root directory, safe to tar up or
point multiple processes at)::

    <root>/
      results/<hh>/<digest>.json     record manifests (commit points)
      results/<hh>/<digest>.npz      record payloads (numeric arrays)
      sched/<grid>/...               scheduler state (grids + leases)
      locks/gc.lock                  maintenance mutex

``<hh>`` is a 2-hex-character shard of the digest so no single directory
grows unboundedly.  Records are read and written through
:mod:`repro.store.records` (atomic, corruption-tolerant).  A ``pi/``
directory left by older versions (an on-disk join-distribution cache)
is no longer read; delete it by hand.

Maintenance: :meth:`gc` sweeps debris that the crash-safety protocol can
leave behind — orphaned temp files and stale lock or lease files a
killed reclaimer renamed aside, payloads whose manifest never landed,
manifests whose payload is missing or unreadable — under a file lock so
concurrent sweeps cannot race.  :meth:`info` and :meth:`iter_records`
power the ``repro-experiments store info|ls`` CLI.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy.typing as npt

from repro.exceptions import ConfigurationError
from repro.store.digest import STORE_FORMAT
from repro.store.locks import LEASE_SUFFIX, STALE_INFIX, FileLock, break_stale
from repro.store.records import (
    MANIFEST_SUFFIX,
    PAYLOAD_SUFFIX,
    TMP_PREFIX,
    Record,
    delete_record,
    read_manifest,
    read_record,
    write_record,
)
from repro.util.validation import check_positive

__all__ = ["ResultStore"]


def _digest_from(path: Path, suffix: str) -> str | None:
    """The digest a record file's name encodes, or ``None`` for foreign
    files (editor backups, OS metadata, ...) — which every walk below
    must *skip*, never crash on and never delete."""
    name = path.name[: -len(suffix)]
    if name and all(c in "0123456789abcdef" for c in name):
        return name
    return None


def _is_debris(name: str) -> bool:
    """A killed writer's temp file, or a lock/lease file a killed
    reclaimer renamed aside and never unlinked."""
    return name.startswith(TMP_PREFIX) or STALE_INFIX in name


class ResultStore:
    """Disk-backed, content-addressed store of simulation artifacts.

    ``ResultStore(root)`` never eagerly creates directories — a store
    that is only ever read from leaves the filesystem untouched until
    the first write.  Accepts a path-like or an existing instance in
    every public API that takes a store (see :meth:`coerce`).
    """

    def __init__(self, root: "ResultStore | str | Path") -> None:
        if isinstance(root, ResultStore):  # defensive: coerce() is the public path
            root = root.root
        self.root = Path(root)

    @classmethod
    def coerce(cls, store: "ResultStore | str | Path") -> "ResultStore":
        """``store`` as a :class:`ResultStore` (paths are wrapped)."""
        if isinstance(store, ResultStore):
            return store
        if isinstance(store, (str, Path)):
            return cls(store)
        raise ConfigurationError(
            f"store must be a ResultStore or a path, got {type(store).__name__}"
        )

    # ------------------------------------------------------------------
    @property
    def results_dir(self) -> Path:
        return self.root / "results"

    @property
    def sched_dir(self) -> Path:
        """Scheduler state (grid manifests + lease files) under this root."""
        return self.root / "sched"

    def record_dir(self, digest: str) -> Path:
        return self.results_dir / digest[:2]

    # ------------------------------------------------------------------
    # Records

    def has_record(self, digest: str) -> bool:
        """True when :meth:`read_record` would return the record.

        It is that read: "committed" means readable, on every partial
        state a crash, a truncated copy or a corrupt disk can leave — a
        manifest whose payload is missing, truncated, or fails its CRC
        check reads as absent, so grid workers and the service recompute
        the point instead of skipping it forever.  The payload is read on
        every call; its decode runs once per process for the same bytes
        (see :mod:`repro.store.records`).
        """
        return read_record(self.record_dir(digest), digest) is not None

    def read_record(self, digest: str) -> Record | None:
        """The record, or ``None`` when absent or unreadable."""
        return read_record(self.record_dir(digest), digest)

    def write_record(
        self, digest: str, arrays: Mapping[str, npt.NDArray[Any]], meta: Mapping[str, Any]
    ) -> Path:
        """Atomically persist a record; returns the manifest path."""
        return write_record(self.record_dir(digest), digest, arrays, meta)

    def delete_record(self, digest: str) -> int:
        return delete_record(self.record_dir(digest), digest)

    def iter_records(self) -> Iterator[tuple[str, dict[str, Any]]]:
        """Yield ``(digest, manifest)`` for every committed record."""
        if not self.results_dir.is_dir():
            return
        for manifest_path in sorted(self.results_dir.glob(f"*/*{MANIFEST_SUFFIX}")):
            if manifest_path.name.startswith(TMP_PREFIX):
                continue
            digest = _digest_from(manifest_path, MANIFEST_SUFFIX)
            if digest is None:
                continue
            meta = read_manifest(manifest_path.parent, digest)
            if meta is not None:
                yield digest, meta

    # ------------------------------------------------------------------
    # Maintenance

    def info(self) -> dict[str, Any]:
        """Size/count summary of the store (the ``store info`` payload)."""
        n_records = 0
        record_bytes = 0
        if self.results_dir.is_dir():
            for path in self.results_dir.glob("*/*"):
                if path.name.startswith(TMP_PREFIX):
                    continue
                if path.suffix == MANIFEST_SUFFIX:
                    if _digest_from(path, MANIFEST_SUFFIX) is None:
                        continue
                    n_records += 1
                elif path.suffix != PAYLOAD_SUFFIX or _digest_from(path, PAYLOAD_SUFFIX) is None:
                    continue
                try:
                    record_bytes += path.stat().st_size
                except OSError:
                    pass
        return {
            "root": str(self.root),
            "format": STORE_FORMAT,
            "records": n_records,
            "record_bytes": record_bytes,
        }

    #: Files younger than this are presumed to belong to an in-flight
    #: write and are left alone by :meth:`gc`: a temp file or a
    #: payload-without-manifest is a normal transient state *during* a
    #: write, and only becomes debris when its writer is gone.
    GC_GRACE_SECONDS = 3600.0

    @staticmethod
    def _older_than(path: Path, cutoff: float) -> bool:
        try:
            return path.stat().st_mtime < cutoff
        except OSError:
            return False  # vanished — its writer is alive; leave it be

    def gc(
        self,
        *,
        grace_seconds: float | None = None,
        max_age_seconds: float | None = None,
    ) -> dict[str, int]:
        """Sweep debris; returns removal counts by category.

        Removes (under the store's maintenance lock):

        * ``tmp`` — crash debris under ``results/``, ``sched/`` and
          ``locks/``: temp files abandoned by killed writers, and
          ``*.stale-*`` files a killed lock or lease reclaimer renamed
          aside (:func:`~repro.store.locks.break_stale`) but never
          unlinked;
        * ``orphan_payloads`` — payloads whose manifest never landed
          (a write interrupted before its commit point);
        * ``broken_records`` — committed manifests whose payload is
          missing or unreadable (both files are removed so the point is
          recomputed cleanly).

        Healthy records are never touched, and the first two categories
        — which are also the *normal transient states of an in-flight
        write* — are only swept once older than ``grace_seconds``
        (default :data:`GC_GRACE_SECONDS`), so running ``gc`` while
        sweeps are writing cannot yank a temp file or a just-landed
        payload out from under its writer.  The lock excludes concurrent
        maintenance only.  Pass ``grace_seconds=0`` to force a full
        sweep when no writer can be alive.

        ``max_age_seconds`` additionally breaks ``stale_leases`` —
        scheduler lease files older than ``max_age_seconds``, i.e.
        orphans whose worker died and whose grid no active worker is
        reclaiming (live schedulers reclaim expired leases themselves on
        a much shorter TTL — this is the backstop for abandoned grids).
        The takeover goes through the same atomic rename-steal as lease
        reclaim, so gc can never delete a lease a live worker just
        refreshed.  Committed records are *never* age-evicted.

        Both ages must be ``>= 0``: a negative one would reach past "now"
        and take the live state the guarantees above protect, so it
        raises :class:`~repro.exceptions.ConfigurationError` before the
        lock is taken.
        """
        grace = self.GC_GRACE_SECONDS if grace_seconds is None else grace_seconds
        grace = check_positive("grace_seconds", grace, allow_zero=True)
        if max_age_seconds is not None:
            max_age_seconds = check_positive("max_age_seconds", max_age_seconds, allow_zero=True)
        cutoff = time.time() - grace
        removed = {"tmp": 0, "orphan_payloads": 0, "broken_records": 0, "stale_leases": 0}
        locks_dir = self.root / "locks"
        with FileLock(locks_dir / "gc.lock"):
            for base in (self.results_dir, self.sched_dir, locks_dir):
                if not base.is_dir():
                    continue
                for path in base.rglob("*"):
                    if not _is_debris(path.name) or not self._older_than(path, cutoff):
                        continue
                    try:
                        os.unlink(path)
                        removed["tmp"] += 1
                    except OSError:
                        pass
            if self.results_dir.is_dir():
                for payload in self.results_dir.glob(f"*/*{PAYLOAD_SUFFIX}"):
                    digest = _digest_from(payload, PAYLOAD_SUFFIX)
                    if digest is None or not self._older_than(payload, cutoff):
                        continue
                    if read_manifest(payload.parent, digest) is None:
                        try:
                            os.unlink(payload)
                            removed["orphan_payloads"] += 1
                        except OSError:
                            pass
                for manifest in self.results_dir.glob(f"*/*{MANIFEST_SUFFIX}"):
                    digest = _digest_from(manifest, MANIFEST_SUFFIX)
                    if digest is None:
                        continue
                    if (
                        read_manifest(manifest.parent, digest) is not None
                        and read_record(manifest.parent, digest) is None
                    ):
                        delete_record(manifest.parent, digest)
                        removed["broken_records"] += 1
            if max_age_seconds is not None and self.sched_dir.is_dir():
                for lease in self.sched_dir.rglob(f"*{LEASE_SUFFIX}"):
                    if break_stale(lease, max_age_seconds) is not None:
                        removed["stale_leases"] += 1
        return removed

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore(root={str(self.root)!r})"
