"""Disk-backed result store: resumable sweeps, grids and served points.

The experiments of the paper are *sweeps* — over colony size, task
count, noise, and feedback shape — and the ROADMAP's production target
serves many such scenarios repeatedly.  This package makes their
artifacts durable and shareable:

* :mod:`repro.store.digest` — canonical JSON digests.  Every persisted
  artifact is keyed by a content digest of the *generating parameters*
  (spec JSON, engine, seeds, horizon), so two runs that would induce the
  same result distribution share one record — the same idea as
  distribution-based bisimulation for labelled Markov processes: equal
  signatures are interchangeable.
* :mod:`repro.store.records` — atomic npz/JSON record IO.  Records
  become visible only through an atomic rename of their JSON manifest,
  so concurrent writers and killed processes can never publish a
  partial record; corrupt or orphaned files read as *absent* and are
  swept by :meth:`ResultStore.gc`.
* :mod:`repro.store.store` — :class:`ResultStore`, the content-addressed
  store root with ``ls`` / ``gc`` / ``info`` maintenance.
* :mod:`repro.store.locks` — a minimal advisory file lock for
  maintenance operations (``gc``) that must not race each other.

Layering: this package depends only on numpy, the standard library,
``repro.exceptions`` and ``repro.util`` — never on ``repro.sim`` /
``repro.scenario`` — so the simulation layers can import it freely.
"""

from repro.store.digest import (
    NUMERICS_VERSION,
    STORE_FORMAT,
    canonical_json,
    digest_hex,
    seed_from_digest,
)
from repro.store.locks import (
    LEASE_SUFFIX,
    FileLock,
    LockTimeout,
    break_stale,
    format_owner,
    owner_token,
    read_owner,
    write_owner_file,
)
from repro.store.records import Record, delete_record, read_record, write_record
from repro.store.store import ResultStore

__all__ = [
    "NUMERICS_VERSION",
    "STORE_FORMAT",
    "canonical_json",
    "digest_hex",
    "seed_from_digest",
    "FileLock",
    "LockTimeout",
    "LEASE_SUFFIX",
    "break_stale",
    "format_owner",
    "owner_token",
    "read_owner",
    "write_owner_file",
    "Record",
    "read_record",
    "write_record",
    "delete_record",
    "ResultStore",
]
