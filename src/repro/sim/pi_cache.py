"""Cross-trial join-distribution cache for the counting engine.

Sweeps re-derive identical join distributions: every trial of a sweep
point starts from the same loads, and with integer-valued feedback the
same deficit signatures recur across trials and even across sweep
points.  A :class:`SharedPiCache` is one content-addressed store that
many :class:`~repro.sim.counting.CountingSimulator` instances read
through, so the quadrature join kernel runs once per *distinct*
signature per process instead of once per trial.

Correctness is structural, exactly as for the per-simulator cache: the
key is the byte image of the mark-probability vector ``u``, so a hit can
only ever return the very array the kernel would produce for it —
shared-cache runs are bit-identical to per-trial-cache runs.  The cache
lives in memory only, so it never outlives the kernel that filled it.
Stored arrays are marked read-only so no simulator can corrupt
another's view.

Process-pool safety: instances pickle as a lightweight *token*, not as
their contents.  Unpickling resolves the token against a per-process
registry, creating one empty cache per worker process on first use and
returning the **same** object for every later trial shipped to that
worker — so ``ProcessPoolExecutor`` workers amortize the kernel across
all trials they execute, while the parent process keeps its own live
instance (unpickling there resolves back to the original object).  The
caches never synchronize across processes; they don't need to, because
a miss just recomputes the identical distribution.
"""

from __future__ import annotations

import uuid
import weakref

import numpy as np

from repro.obs import get_registry
from repro.util.validation import check_integer

__all__ = ["SharedPiCache", "SHARED_PI_CACHE_MAX_ENTRIES"]

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


def _resolve_token(token: str, max_entries: int) -> "SharedPiCache":
    """Per-process unpickling hook: one live cache per token per process."""
    cache = _PROCESS_REGISTRY.get(token)
    if cache is None:
        cache = SharedPiCache(max_entries=max_entries, _token=token)
        _PROCESS_PINNED[token] = cache
    return cache


class SharedPiCache:
    """Read-through, content-addressed join-distribution store.

    Keys are ``u.tobytes()`` images built by :meth:`key`; values are
    read-only ``(k + 1,)`` float64 arrays.  The cache is deliberately
    dumb — no locking (simulators use it from one thread per process),
    FIFO eviction at ``max_entries``, and :attr:`hits` / :attr:`misses`
    counters so sweeps can report how much kernel work was amortized
    across trials.
    """

    def __init__(
        self,
        *,
        max_entries: int = SHARED_PI_CACHE_MAX_ENTRIES,
        _token: str | None = None,
    ) -> None:
        self.max_entries = check_integer("max_entries", max_entries, minimum=1)
        self._token = uuid.uuid4().hex if _token is None else _token
        self._entries: dict[bytes, np.ndarray] = {}
        self.hits = 0
        self.misses = 0
        # Cumulative process-wide observability (never reset by clear()).
        registry = get_registry()
        self._obs_tiers = {
            tier: registry.counter("repro_shared_pi_cache_fetch_total", tier=tier)
            for tier in ("memory", "miss")
        }
        _PROCESS_REGISTRY[self._token] = self

    # ------------------------------------------------------------------
    @staticmethod
    def key(u: np.ndarray) -> bytes:
        """The cache key for mark probabilities ``u``: their byte image."""
        return u.tobytes()

    def fetch(self, key: bytes) -> np.ndarray | None:
        """The cached distribution, or ``None`` (counted as hit/miss)."""
        pi = self._entries.get(key)
        if pi is None:
            self.misses += 1
            self._obs_tiers["miss"].inc()
        else:
            self.hits += 1
            self._obs_tiers["memory"].inc()
        return pi

    def put(self, key: bytes, pi: np.ndarray) -> np.ndarray:
        """Store a read-only copy of ``pi``; returns the stored array."""
        stored = np.array(pi, dtype=np.float64, copy=True)
        stored.setflags(write=False)
        if len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = stored
        return stored

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedPiCache(entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses}, token={self._token[:8]})"
        )

    # ------------------------------------------------------------------
    def __reduce__(self):
        # Pickle as an identity token: contents stay process-local, and
        # every unpickle within one process yields the same live cache.
        return (_resolve_token, (self._token, self.max_entries))
