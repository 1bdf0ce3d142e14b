"""Cross-trial join-distribution cache for the counting engine.

Sweeps re-derive identical join distributions: every trial of a sweep
point starts from the same loads, and with integer-valued feedback the
same deficit signatures recur across trials and even across sweep
points.  A :class:`SharedPiCache` is one content-addressed store that
many :class:`~repro.sim.counting.CountingSimulator` instances read
through, so the quadrature join kernel runs once per *distinct*
signature per process instead of once per trial.

Correctness is structural, exactly as for the per-simulator cache: the
key embeds the mark-probability vector ``u`` byte-for-byte plus a tag
naming the engine's numerics version (:data:`PI_KEY_TAG`, from
:data:`repro.store.NUMERICS_VERSION`), so a hit can only ever return the
very array the current kernel would produce — shared-cache runs are
bit-identical to per-trial-cache runs, and entries persisted by a kernel
with other bits are never served.  Stored arrays are marked read-only so
no simulator can corrupt another's view.

Process-pool safety: instances pickle as a lightweight *token*, not as
their contents.  Unpickling resolves the token against a per-process
registry, creating one empty cache per worker process on first use and
returning the **same** object for every later trial shipped to that
worker — so ``ProcessPoolExecutor`` workers amortize the kernel across
all trials they execute, while the parent process keeps its own live
instance (unpickling there resolves back to the original object).  The
caches never synchronize across processes; they don't need to, because
a miss just recomputes the identical distribution.

A third tier extends the reuse across processes *and sessions*: pass
``disk=`` (a :class:`~repro.store.pi_disk.DiskPiCache` or a directory
path) and every memory miss consults the persistent cache before
running the kernel, every kernel result is published to it, and the
disk root travels through pickling — so pool workers share one
machine-level cache and the second sweep on a machine pays the kernel
for none of the signatures the first one saw.  Disk entries are
memory-mapped read-only, and concurrent writers are safe (atomic
write-then-rename; racing writers of one key produce byte-identical
files).  Lookup traffic is split into :attr:`hits` (memory),
:attr:`disk_hits`, and :attr:`misses` (kernel actually required).
"""

from __future__ import annotations

import uuid
import weakref

import numpy as np

from repro.obs import get_registry
from repro.obs import monotonic as obs_monotonic
from repro.store import NUMERICS_VERSION
from repro.store.pi_disk import DiskPiCache
from repro.util.validation import check_integer

__all__ = ["PI_KEY_TAG", "SharedPiCache", "SHARED_PI_CACHE_MAX_ENTRIES"]

#: First component of every join-cache key, memory and disk tiers alike
#: (on disk it names the ``pi/<tag>/`` directory).  It changes with
#: :data:`~repro.store.NUMERICS_VERSION`, so a store written under older
#: numerics keeps its files but never serves them.
PI_KEY_TAG = f"numerics-{NUMERICS_VERSION}"

#: Default capacity of a shared cache.  Each entry holds one ``(k + 1,)``
#: float64 array; at k = 8192 a full cache is ~270 MB, so bound it well
#: below that for typical sweeps.  Eviction is FIFO, like the
#: per-simulator cache.
SHARED_PI_CACHE_MAX_ENTRIES = 4096

#: token -> live cache, per process.  Weak values: in the cache's *home*
#: process (where it was constructed) the owner holds the reference, and
#: dropping it must actually free the entries.
_PROCESS_REGISTRY: weakref.WeakValueDictionary[str, "SharedPiCache"] = (
    weakref.WeakValueDictionary()
)

#: Strong pins for caches materialized by *unpickling* a token (i.e. in
#: pool worker processes).  Between two trials nothing else in a worker
#: references the cache — the executor drops the factory as soon as a
#: trial returns — so without this pin the weak registry entry would be
#: garbage-collected and every trial would start cold, silently
#: defeating the cross-trial amortization the cache exists for.  Pinned
#: caches live for the process (worker) lifetime, which is the intended
#: scope.
_PROCESS_PINNED: dict[str, "SharedPiCache"] = {}


def _resolve_token(
    token: str, max_entries: int, disk_root: str | None = None
) -> "SharedPiCache":
    """Per-process unpickling hook: one live cache per token per process.

    ``disk_root`` re-attaches the persistent tier in worker processes:
    the in-memory contents stay process-local, but every worker reads
    and writes the same on-disk cache, which is what makes pool workers
    amortize each other's kernel work across process boundaries.
    """
    cache = _PROCESS_REGISTRY.get(token)
    if cache is None:
        cache = SharedPiCache(max_entries=max_entries, disk=disk_root, _token=token)
        _PROCESS_PINNED[token] = cache
    return cache


class SharedPiCache:
    """Read-through, content-addressed join-distribution store.

    Keys are ``(PI_KEY_TAG, u.tobytes())`` pairs built by :meth:`key`;
    values are read-only ``(k + 1,)`` float64 arrays.  The cache is
    deliberately dumb — no locking (simulators use it from one
    thread per process), FIFO eviction at ``max_entries``, and
    :attr:`hits` / :attr:`disk_hits` / :attr:`misses` counters so sweeps
    can report how much kernel work was amortized across trials (and,
    with a ``disk`` tier, across sweeps and sessions).

    ``disk`` attaches the persistent tier: a
    :class:`~repro.store.pi_disk.DiskPiCache`, or a directory path to
    root one at.  Disk-served entries are pinned into the memory tier so
    each is read at most once per process.
    """

    def __init__(
        self,
        *,
        max_entries: int = SHARED_PI_CACHE_MAX_ENTRIES,
        disk: "DiskPiCache | str | None" = None,
        _token: str | None = None,
    ) -> None:
        self.max_entries = check_integer("max_entries", max_entries, minimum=1)
        if disk is None or isinstance(disk, DiskPiCache):
            self.disk = disk
        else:
            self.disk = DiskPiCache(disk)
        self._token = uuid.uuid4().hex if _token is None else _token
        self._entries: dict[tuple[str, bytes], np.ndarray] = {}
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        # Cumulative process-wide observability (never reset by clear()):
        # one counter per tier outcome, plus disk-read latency.
        registry = get_registry()
        self._obs_tiers = {
            tier: registry.counter("repro_shared_pi_cache_fetch_total", tier=tier)
            for tier in ("memory", "disk", "miss")
        }
        self._obs_disk_seconds = registry.histogram("repro_disk_pi_cache_read_seconds")
        _PROCESS_REGISTRY[self._token] = self

    # ------------------------------------------------------------------
    @staticmethod
    def key(u: np.ndarray) -> tuple[str, bytes]:
        """The cache key for mark probabilities ``u``: the numerics tag
        plus the byte image of ``u``."""
        return (PI_KEY_TAG, u.tobytes())

    def fetch(self, key: tuple[str, bytes]) -> tuple[np.ndarray | None, str | None]:
        """``(distribution, tier)`` — tier ``"memory"``, ``"disk"``, or ``None``.

        The tiered lookup: memory first, then the persistent tier (when
        attached).  Disk-served entries are pinned into memory so the
        file is read once per process; a full miss returns
        ``(None, None)`` and counts toward :attr:`misses`.
        """
        pi = self._entries.get(key)
        if pi is not None:
            self.hits += 1
            self._obs_tiers["memory"].inc()
            return pi, "memory"
        if self.disk is not None:
            start = obs_monotonic()
            pi = self.disk.get(key)
            self._obs_disk_seconds.observe(obs_monotonic() - start)
            if pi is not None:
                # Pin an in-memory copy, not the memmap itself: a pinned
                # memmap would hold its file mapping (and descriptor)
                # open for as long as the entry lives, and thousands of
                # distinct signatures would exhaust the process fd limit.
                # The copy costs one (k + 1) float64 array — identical
                # bytes, so bit-identity is untouched.
                pi = np.array(pi, dtype=np.float64)
                pi.setflags(write=False)
                self.disk_hits += 1
                self._obs_tiers["disk"].inc()
                self._pin(key, pi)
                return pi, "disk"
        self.misses += 1
        self._obs_tiers["miss"].inc()
        return None, None

    def get(self, key: tuple[str, bytes]) -> np.ndarray | None:
        """The cached distribution, or ``None`` (counted as hit/miss)."""
        return self.fetch(key)[0]

    def put(self, key: tuple[str, bytes], pi: np.ndarray) -> np.ndarray:
        """Store ``pi`` (read-only copy, all tiers); returns the stored array."""
        stored = np.array(pi, dtype=np.float64, copy=True)
        stored.setflags(write=False)
        self._pin(key, stored)
        if self.disk is not None:
            self.disk.put(key, stored)
        return stored

    def _pin(self, key: tuple[str, bytes], pi: np.ndarray) -> None:
        if len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = pi

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop all in-memory entries and reset the counters.

        The persistent tier is deliberately untouched — it belongs to
        the machine, not this object; remove its directory (or run
        ``store gc``) to reclaim it.
        """
        self._entries.clear()
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedPiCache(entries={len(self._entries)}, hits={self.hits}, "
            f"disk_hits={self.disk_hits}, misses={self.misses}, "
            f"token={self._token[:8]})"
        )

    # ------------------------------------------------------------------
    def __reduce__(self):
        # Pickle as an identity token: contents stay process-local, and
        # every unpickle within one process yields the same live cache.
        # The disk root travels as a plain path so worker processes
        # re-attach the same machine-level persistent tier.
        disk_root = None if self.disk is None else str(self.disk.root)
        return (_resolve_token, (self._token, self.max_entries, disk_root))
