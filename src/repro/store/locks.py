"""Minimal advisory file lock + stale-file takeover for shared storage.

Record *writes* need no lock — the digest pins the content and the
rename publish is atomic, so concurrent writers of the same record are
idempotent.  What must not race is *maintenance*: two ``gc`` passes
sweeping the same directory, or a ``gc`` deleting a temp file another
process is about to rename.  :class:`FileLock` covers that with the
oldest portable primitive there is: ``open(O_CREAT | O_EXCL)`` on a
lockfile.

The lock is advisory (all parties must use it), reentrant-unsafe by
design (it is a process-level mutex, not a threading one), and
self-healing: a lockfile older than ``stale_after`` seconds is presumed
abandoned by a killed process and broken.  Every lockfile carries an
**owner token** — hostname, pid, and acquire wall-time as one canonical
JSON line — so stale-lock forensics work on shared filesystems where a
bare pid is meaningless (pid 1234 on *which* machine?).  The token is
parsed back into error messages and powers the lease files of
:mod:`repro.sched.leases`, which share both the file format and the
takeover protocol below.

Takeover (:func:`break_stale`) is the subtle part: a bare stat-then-
unlink would race — two waiters could both judge the file stale, the
slower unlink then deleting the *fresh* lock the faster waiter just
acquired.  Breaking therefore goes through an atomic rename to a unique
name (only one waiter's rename wins) and re-checks staleness on the
renamed file, restoring a stolen live lock via ``link``.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import Any

from repro.exceptions import ReproError

__all__ = [
    "FileLock",
    "LockTimeout",
    "LEASE_SUFFIX",
    "STALE_INFIX",
    "break_stale",
    "format_owner",
    "owner_token",
    "read_owner",
    "write_owner_file",
]

#: A lockfile this old belongs to a process that died without releasing
#: it; ``gc`` runs take seconds, so an hour is conservatively stale.
DEFAULT_STALE_AFTER = 3600.0

#: Suffix of sweep-point lease files (:mod:`repro.sched.leases`).  Lives
#: here, not in ``repro.sched``, so the store's ``gc`` can sweep orphaned
#: leases without importing the (higher-layer) scheduler package.
LEASE_SUFFIX = ".lease"

#: Marks the unique name :func:`break_stale` renames a file to before
#: deleting or restoring it; a reclaimer killed in between leaves
#: ``<name>.stale-<pid>-<id>`` behind for ``gc``.
STALE_INFIX = ".stale-"


class LockTimeout(ReproError, TimeoutError):
    """The lock could not be acquired within the timeout."""


# ----------------------------------------------------------------------
# Owner tokens


def owner_token() -> dict[str, Any]:
    """A fresh owner token: who is claiming a lock/lease, right now.

    ``host`` + ``pid`` identify the claimant across the machines of a
    shared filesystem; ``acquired_unix`` records the claim wall-time for
    forensics (the *freshness* authority stays the file's mtime, which
    heartbeats can bump without rewriting the token).
    """
    return {
        "host": socket.gethostname(),
        "pid": os.getpid(),
        # Forensic wall-time of a *lock claim* — never digested content.
        "acquired_unix": round(time.time(), 3),  # repro-lint: disable=RPR002
    }


def format_owner(owner: dict[str, Any] | None) -> str:
    """Human-readable rendering of an owner token for error messages."""
    if not owner:
        return "unknown owner"
    host = owner.get("host", "?")
    pid = owner.get("pid", "?")
    acquired = owner.get("acquired_unix")
    when = "" if acquired is None else f" since unix time {acquired}"
    return f"pid {pid} on host {host}{when}"


def read_owner(path: str | Path) -> dict[str, Any] | None:
    """The owner token stored in a lock/lease file, or ``None``.

    Tolerates every failure mode — missing file, unreadable bytes,
    foreign content: a pre-token lockfile holding a bare pid reads as
    ``{"pid": N}``, anything else as ``None`` — forensics must never
    crash the acquire path.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    try:
        owner = json.loads(text)
    except ValueError:
        return None
    if isinstance(owner, dict):
        return owner
    # A bare pid is itself valid JSON (an int), so the legacy form must
    # be recognized on the *parsed* value, not in the except branch.
    if isinstance(owner, int) and not isinstance(owner, bool):
        return {"pid": owner}
    return None


def _owner_bytes(owner: dict[str, Any]) -> bytes:
    return (json.dumps(owner, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def write_owner_file(path: str | Path, owner: dict[str, Any]) -> bool:
    """Create ``path`` exclusively with ``owner`` inside; False if it exists.

    The ``O_CREAT | O_EXCL`` create *is* the claim — exactly one claimant
    can win it, which is what makes both :class:`FileLock` acquisition
    and lease claims race-free on any POSIX filesystem.
    """
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        return False
    try:
        os.write(fd, _owner_bytes(owner))
    finally:
        os.close(fd)
    return True


# ----------------------------------------------------------------------
# Stale-file takeover


def break_stale(path: str | Path, stale_after: float) -> dict[str, Any] | None:
    """Remove ``path`` if its mtime is older than ``stale_after`` seconds.

    At most one concurrent caller succeeds.  Returns the evicted
    holder's owner token (``{}`` when unreadable) if this call actually
    removed the file, ``None`` otherwise — a live file is never deleted.

    The protocol: atomically rename the file to a unique name — only one
    caller's rename wins — then re-check staleness on the renamed file.
    If a *live* file was stolen in the stat/rename window (the holder
    re-created it in between), it is restored via ``link`` (not
    ``rename``) so a lock some third waiter acquired meanwhile is never
    clobbered.
    """
    path = Path(path)
    try:
        # Heartbeat freshness is *defined* by wall-clock-vs-mtime.
        age = time.time() - path.stat().st_mtime  # repro-lint: disable=RPR002
    except OSError:
        return None  # gone already — the holder released it
    if age <= stale_after:
        return None
    stolen = path.with_name(f"{path.name}{STALE_INFIX}{os.getpid()}-{id(path):x}")
    try:
        os.rename(path, stolen)
    except OSError:
        return None  # another waiter broke it first
    try:
        now = time.time()  # repro-lint: disable=RPR002
        still_stale = now - stolen.stat().st_mtime > stale_after
    except OSError:
        return None
    if still_stale:
        owner = read_owner(stolen) or {}
        try:
            os.unlink(stolen)
        except OSError:
            pass
        return owner
    # We stole a *live* file created between stat and rename — restore
    # it; if a third waiter claimed the name meanwhile, the restore is
    # abandoned (best-effort, advisory).
    try:
        os.link(stolen, path)
    except OSError:
        pass
    try:
        os.unlink(stolen)
    except OSError:
        pass
    return None


# ----------------------------------------------------------------------


class FileLock:
    """``with FileLock(path):`` — exclusive advisory lock via ``O_EXCL``.

    Parameters
    ----------
    path:
        The lockfile location (created on acquire, removed on release).
    timeout:
        Seconds to keep retrying before raising :class:`LockTimeout`.
    poll:
        Sleep between attempts.
    stale_after:
        Age in seconds past which an existing lockfile is treated as
        abandoned and broken (``None`` disables takeover).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        timeout: float = 30.0,
        poll: float = 0.05,
        stale_after: float | None = DEFAULT_STALE_AFTER,
    ) -> None:
        self.path = Path(path)
        self.timeout = float(timeout)
        self.poll = float(poll)
        self.stale_after = None if stale_after is None else float(stale_after)
        self._held = False

    # ------------------------------------------------------------------
    def _try_acquire(self) -> bool:
        return write_owner_file(self.path, owner_token())

    def _break_if_stale(self) -> None:
        if self.stale_after is not None:
            break_stale(self.path, self.stale_after)

    def acquire(self) -> "FileLock":
        if self._held:
            raise ReproError(f"lock {self.path} is already held by this object")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + self.timeout
        while True:
            if self._try_acquire():
                self._held = True
                return self
            self._break_if_stale()
            if time.monotonic() >= deadline:
                raise LockTimeout(
                    f"could not acquire {self.path} within {self.timeout:.1f}s "
                    f"(held by {format_owner(read_owner(self.path))}; another "
                    "maintenance operation is running, or a stale lockfile "
                    "below the stale_after age is blocking it)"
                )
            time.sleep(self.poll)

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            os.unlink(self.path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()
