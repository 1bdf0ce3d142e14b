"""Disk tier of the join-distribution cache: pay the kernel once per machine.

The in-memory :class:`~repro.sim.pi_cache.SharedPiCache` amortizes the
quadrature join kernel across the trials of one process;
:class:`DiskPiCache` extends that across *processes and sessions*: every
computed distribution is persisted as a ``.npy`` file named by the
SHA-256 of its cache key, so the second sweep on a machine — or the
sibling worker of a ProcessPool — reads distributions instead of
recomputing them.

Correctness is inherited from the keying scheme: the key is
``(numerics tag, u.tobytes())`` — the byte image of the mark
probabilities plus a tag naming the engine's numerics version
(``repro.sim.pi_cache.PI_KEY_TAG``) — so a file can only ever contain
the very array the same computation would produce, entries written under
other numerics live in another directory and are never read, and
``np.save``/``np.load`` round-trip float64 bit-exactly, keeping
disk-cached runs bit-identical to cold ones.  Reads additionally
validate dtype and shape (``(k + 1,)``, with ``k`` recovered from the
key) so a truncated or foreign file reads as a *miss*, never as data.

Concurrency: writes go through a same-directory temp file and an atomic
:func:`os.replace`.  Two workers racing on the same key write
byte-identical files, so last-rename-wins is harmless; a reader never
observes a partial file.  Reads are memory-mapped read-only
(``mmap_mode="r"``) by default: entries load lazily, stay immutable, and
are shared page-cache-backed across every process on the machine.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np
import numpy.typing as npt

__all__ = ["DiskPiCache"]

#: Cache keys, as produced by ``SharedPiCache.key``.
PiKey = tuple[str, bytes]

_SUFFIX = ".npy"
_TMP_PREFIX = ".tmp-"


class DiskPiCache:
    """Persistent, content-addressed store of join distributions.

    Parameters
    ----------
    root:
        Directory holding the cache (created on first write).  Layout:
        ``<root>/<tag>/<hh>/<sha256-of-u-bytes>.npy`` with a 2-hex
        shard level so no directory grows unboundedly.
    mmap:
        Memory-map reads (default).  Pass ``False`` to load entries into
        process memory instead — e.g. when a workload would hold more
        live entries than the process's open-file limit.

    The cache is deliberately unbounded: entries are a few KiB each and
    ``ResultStore.gc``/``store gc`` provides the maintenance path.
    :attr:`hits`, :attr:`misses`, and :attr:`writes` count this
    process's traffic.
    """

    def __init__(self, root: str | Path, *, mmap: bool = True) -> None:
        self.root = Path(root)
        self.mmap = bool(mmap)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _expected_length(key: PiKey) -> int:
        """``k + 1`` recovered from the key's float64 byte image."""
        return len(key[1]) // np.dtype(np.float64).itemsize + 1

    def path_for(self, key: PiKey) -> Path:
        """The file that does / would hold this key's distribution."""
        tag, u_bytes = key
        name = hashlib.sha256(u_bytes).hexdigest()
        return self.root / tag / name[:2] / f"{name}{_SUFFIX}"

    # ------------------------------------------------------------------
    def get(self, key: PiKey) -> npt.NDArray[np.float64] | None:
        """The stored distribution, or ``None`` (missing or corrupt)."""
        path = self.path_for(key)
        try:
            pi = np.load(path, mmap_mode="r" if self.mmap else None, allow_pickle=False)
        except (OSError, ValueError, EOFError):
            self.misses += 1
            return None
        if pi.dtype != np.float64 or pi.shape != (self._expected_length(key),):
            self.misses += 1
            return None
        if not self.mmap:
            pi.setflags(write=False)
        self.hits += 1
        return pi

    def put(self, key: PiKey, pi: npt.NDArray[np.float64]) -> None:
        """Persist ``pi`` under ``key`` (atomic write-then-rename)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=_TMP_PREFIX, suffix=_SUFFIX, dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as f:
                np.save(f, np.asarray(pi, dtype=np.float64), allow_pickle=False)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of persisted entries (walks the directory)."""
        if not self.root.is_dir():
            return 0
        return sum(
            1
            for p in self.root.rglob(f"*{_SUFFIX}")
            if not p.name.startswith(_TMP_PREFIX)
        )

    def nbytes(self) -> int:
        """Total payload bytes on disk."""
        if not self.root.is_dir():
            return 0
        total = 0
        for p in self.root.rglob(f"*{_SUFFIX}"):
            if p.name.startswith(_TMP_PREFIX):
                continue
            try:
                total += p.stat().st_size
            except OSError:
                pass
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiskPiCache(root={str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, writes={self.writes})"
        )
