"""A bounded, content-addressed store of read-only values, one per use.

Two per-process memos are instances of :class:`BoundedStore`: the
counting engine's join distributions (:mod:`repro.sim.counting`) and
the decoded record payloads (:mod:`repro.store.records`).  Each maps a
``bytes`` key to a value that is a pure function of the key, so an
entry never goes stale and a hit is as good as recomputing it.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Any, Callable, Generic, TypeVar

__all__ = ["BoundedStore"]

V = TypeVar("V")


class BoundedStore(Generic[V]):
    """A FIFO map from ``bytes`` keys to values, capped in entries and bytes.

    Lookups are lock-free reads of :attr:`entries`, which hot paths make
    directly.  :meth:`put` inserts and evicts under :attr:`lock`, so
    concurrent threads never evict the same entry twice or iterate a
    dict another thread is growing.  A forked child replaces the lock —
    a thread that held it at the fork does not exist in the child — and
    recounts the bytes of the entries it inherited, which stay valid.

    An entry costs ``len(key) + sizeof(value)`` bytes of
    :attr:`max_bytes`.  Callers store only values nobody may write to.
    """

    def __init__(self, *, max_entries: int, max_bytes: int, sizeof: Callable[[V], int]) -> None:
        self.entries: dict[bytes, V] = {}
        self.nbytes = 0
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.lock = threading.Lock()
        self._sizeof = sizeof
        _LIVE.add(self)

    def put(self, key: bytes, value: V) -> V:
        """Store ``value`` under ``key``; returns the stored value.

        That is the entry another thread inserted meanwhile, if any.  A
        value whose entry alone exceeds the byte budget is returned
        unstored.
        """
        size = len(key) + self._sizeof(value)
        if size > self.max_bytes:
            return value
        with self.lock:
            entries = self.entries
            stored = entries.get(key)
            if stored is not None:
                return stored
            while entries and (
                len(entries) >= self.max_entries or self.nbytes + size > self.max_bytes
            ):
                old = next(iter(entries))
                self.nbytes -= len(old) + self._sizeof(entries.pop(old))
            entries[key] = value
            self.nbytes += size
        return value

    def clear(self) -> None:
        with self.lock:
            self.entries.clear()
            self.nbytes = 0

    def _after_fork_in_child(self) -> None:
        self.lock = threading.Lock()
        self.nbytes = sum(len(key) + self._sizeof(value) for key, value in self.entries.items())


_LIVE: weakref.WeakSet[BoundedStore[Any]] = weakref.WeakSet()


def _after_fork_in_child() -> None:
    for store in list(_LIVE):
        store._after_fork_in_child()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
