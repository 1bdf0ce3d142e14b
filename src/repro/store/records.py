"""Atomic record IO: one result = one JSON manifest + one npz payload.

A record is two files in one directory, named by the record's digest:

* ``<digest>.npz`` — the numeric payload (float64 arrays round-trip
  bit-exactly, which is what makes resumed sweeps *bit-identical* to
  fresh ones);
* ``<digest>.json`` — the manifest: format version, the full generating
  key (for debuggability and ``store ls``), and bookkeeping metadata.

Write protocol (crash- and concurrency-safe without locks):

1. the payload is written to a same-directory temp file and published
   with :func:`os.replace` (atomic on POSIX);
2. the manifest is written the same way, *last*.

Payload bytes are **deterministic**: ``np.savez`` stamps each zip entry
with the wall clock, so two writes of the same arrays would differ at
the byte level — :func:`deterministic_npz_bytes` writes the same
npz-compatible container with a fixed entry timestamp and sorted entry
order instead.  Determinism is what lets the scheduler's kill-recovery
guarantee be checked *byte-for-byte*: a grid resumed after a worker
died must produce a ``results/`` tree identical to an uninterrupted
run's, not merely an equivalent one.

The manifest is the commit point — readers key on it, so a process
killed mid-write leaves either nothing or an orphaned payload, never a
half-visible record.  Two concurrent writers of the same digest write
byte-identical content (the digest pins the inputs), so last-rename-wins
is harmless.  Reads treat every failure mode — missing manifest,
unparsable JSON, wrong format version, missing or corrupt payload — as
*record absent*, so callers recompute instead of crashing; ``gc`` sweeps
the debris.

Reads decode each payload once per process.  :func:`read_record` reads
both files on every call, and takes the decoded arrays from a bounded
per-process memo keyed by the payload's exact bytes.  A memo hit
therefore means the file holds bytes equal to bytes this process once
decoded successfully, CRC check included, and the arrays are what
decoding them again would give.  Only successful decodes are stored,
so a payload that was corrupted, truncated, rewritten or deleted since
is always seen.  Writes never fill the memo: its values come from the
decoder alone.
"""

from __future__ import annotations

import io
import json
import os
import uuid
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping
from zipfile import BadZipFile

import numpy as np
import numpy.typing as npt
from numpy.lib.npyio import NpzFile

from repro.exceptions import ConfigurationError
from repro.store.digest import STORE_FORMAT
from repro.util.bounded_store import BoundedStore

__all__ = [
    "Record",
    "MANIFEST_SUFFIX",
    "PAYLOAD_SUFFIX",
    "TMP_PREFIX",
    "atomic_write_bytes",
    "deterministic_npz_bytes",
    "write_record",
    "read_record",
    "read_manifest",
    "delete_record",
]

MANIFEST_SUFFIX = ".json"
PAYLOAD_SUFFIX = ".npz"

#: Prefix of in-flight temp files (same directory as their target so the
#: final :func:`os.replace` never crosses a filesystem boundary).  ``gc``
#: removes any that outlive their writer.
TMP_PREFIX = ".tmp-"

#: Entry cap of the process's payload memo.  Eviction is FIFO.
PAYLOAD_MEMO_MAX_ENTRIES = 4096
#: Byte budget of the memo: the payload bytes (its keys) plus their
#: decoded arrays.
PAYLOAD_MEMO_MAX_BYTES = 64 << 20


def _arrays_nbytes(arrays: Mapping[str, npt.NDArray[Any]]) -> int:
    return sum(array.nbytes for array in arrays.values())


#: Decoded payloads, keyed by the payload's bytes; the arrays are
#: read-only.
_PAYLOADS: BoundedStore[dict[str, npt.NDArray[Any]]] = BoundedStore(
    max_entries=PAYLOAD_MEMO_MAX_ENTRIES,
    max_bytes=PAYLOAD_MEMO_MAX_BYTES,
    sizeof=_arrays_nbytes,
)


@dataclass(frozen=True)
class Record:
    """One materialized record: its digest, manifest, and arrays."""

    digest: str
    meta: dict[str, Any]
    arrays: dict[str, npt.NDArray[Any]]


def _check_digest(digest: str) -> str:
    if not isinstance(digest, str) or not digest or not all(
        c in "0123456789abcdef" for c in digest
    ):
        raise ConfigurationError(f"record digest must be a lowercase hex string, got {digest!r}")
    return digest


#: Fixed zip-entry timestamp (the zip epoch): payload bytes must depend
#: on the arrays alone, never on when they were written.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def deterministic_npz_bytes(arrays: Mapping[str, npt.NDArray[Any]]) -> bytes:
    """An ``np.load``-compatible npz container with reproducible bytes.

    Entries are written in sorted name order with a fixed timestamp and
    fixed permissions, so the same arrays always serialize to the same
    bytes — unlike ``np.savez``, which stamps each entry with the wall
    clock.  Arrays round-trip bit-exactly (same ``.npy`` entry format).
    """
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            entry = io.BytesIO()
            np.lib.format.write_array(entry, np.asarray(arrays[name]), allow_pickle=False)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH)
            info.external_attr = 0o644 << 16
            zf.writestr(info, entry.getvalue())
    return buffer.getvalue()


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file + rename."""
    path = Path(path)
    tmp = path.with_name(f"{TMP_PREFIX}{uuid.uuid4().hex}-{path.name}")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_record(
    directory: Path,
    digest: str,
    arrays: Mapping[str, npt.NDArray[Any]],
    meta: Mapping[str, Any],
) -> Path:
    """Atomically persist a record; returns the manifest path.

    The payload lands first, the manifest last (the commit point), each
    through its own temp-file-plus-rename, so a reader either sees the
    complete record or no record at all.
    """
    directory = Path(directory)
    _check_digest(digest)
    directory.mkdir(parents=True, exist_ok=True)

    atomic_write_bytes(directory / f"{digest}{PAYLOAD_SUFFIX}", deterministic_npz_bytes(arrays))

    manifest = {"format": STORE_FORMAT, **dict(meta)}
    payload = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    manifest_path = directory / f"{digest}{MANIFEST_SUFFIX}"
    atomic_write_bytes(manifest_path, payload.encode("utf-8"))
    return manifest_path


def read_manifest(directory: Path, digest: str) -> dict[str, Any] | None:
    """The parsed manifest, or ``None`` when missing/corrupt/foreign."""
    path = Path(directory) / f"{_check_digest(digest)}{MANIFEST_SUFFIX}"
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(meta, dict) or meta.get("format") != STORE_FORMAT:
        return None
    return meta


def _decode_payload(data: bytes) -> dict[str, npt.NDArray[Any]]:
    """The read-only arrays of an npz payload: the memo's entry for these
    exact bytes, or a fresh decode that is then stored.

    Raises what the decoder raises on bytes that are not a valid npz
    archive; nothing is memoized then.
    """
    arrays = _PAYLOADS.entries.get(data)
    if arrays is not None:
        return arrays
    # numpy parses each entry's header with ast.literal_eval, and the AST
    # constructor of CPython 3.11 keeps its recursion depth per
    # interpreter, not per thread: concurrent decodes can raise
    # SystemError.  The memo's lock, replaced in a forked child,
    # serializes them.
    with _PAYLOADS.lock:
        loaded = np.load(io.BytesIO(data), allow_pickle=False)
        if not isinstance(loaded, NpzFile):
            raise ValueError("payload is not an npz archive")
        with loaded:
            arrays = {name: loaded[name] for name in loaded.files}
    for array in arrays.values():
        array.setflags(write=False)
    return _PAYLOADS.put(data, arrays)


def read_record(directory: Path, digest: str) -> Record | None:
    """The complete record, or ``None`` for *any* failure mode.

    Missing manifest, unparsable manifest, format mismatch, missing
    payload, and corrupt payload all read as "record absent": the caller
    recomputes (and overwrites the debris), which is the recovery story
    for interrupted or corrupted writes.  The arrays are the caller's
    own writable copies.
    """
    directory = Path(directory)
    meta = read_manifest(directory, digest)
    if meta is None:
        return None
    try:
        arrays = _decode_payload((directory / f"{digest}{PAYLOAD_SUFFIX}").read_bytes())
    except (OSError, ValueError, EOFError, KeyError, BadZipFile):
        return None
    return Record(
        digest=digest, meta=meta, arrays={name: array.copy() for name, array in arrays.items()}
    )


def delete_record(directory: Path, digest: str) -> int:
    """Remove both files of a record; returns how many existed."""
    directory = Path(directory)
    _check_digest(digest)
    removed = 0
    for suffix in (MANIFEST_SUFFIX, PAYLOAD_SUFFIX):
        try:
            os.unlink(directory / f"{digest}{suffix}")
            removed += 1
        except OSError:
            pass
    return removed
