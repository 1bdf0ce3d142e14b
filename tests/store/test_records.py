"""Record IO: atomic round trips and corruption tolerance."""

from __future__ import annotations

import io
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.store.records import (
    MANIFEST_SUFFIX,
    PAYLOAD_SUFFIX,
    TMP_PREFIX,
    atomic_write_bytes,
    delete_record,
    read_record,
    write_record,
)

DIGEST = "ab" * 32


def flip_entry_byte(payload: Path) -> None:
    """Flip the last data byte of a payload's first zip entry, in place.

    The zip directory stays intact (``zipfile.is_zipfile`` is still
    True) and the size does not change; only the entry's CRC check
    fails when it is read.
    """
    data = bytearray(payload.read_bytes())
    with zipfile.ZipFile(io.BytesIO(bytes(data))) as zf:
        entry = zf.infolist()[0]
    # A local file header is 30 fixed bytes, then the name and the extra
    # field; the entry's (stored) bytes follow.
    offset = entry.header_offset
    name_len, extra_len = struct.unpack("<HH", data[offset + 26 : offset + 30])
    data[offset + 30 + name_len + extra_len + entry.compress_size - 1] ^= 0xFF
    payload.write_bytes(bytes(data))


def _write(tmp_path, digest=DIGEST, **extra_meta):
    arrays = {
        "average_regrets": np.array([1.25, 2.5]),
        "switches": np.arange(4, dtype=np.int64),
    }
    meta = {"kind": "sweep_point", "label": "p", **extra_meta}
    write_record(tmp_path, digest, arrays, meta)
    return arrays, meta


class TestRoundTrip:
    def test_arrays_and_meta_roundtrip_exactly(self, tmp_path):
        arrays, meta = _write(tmp_path)
        rec = read_record(tmp_path, DIGEST)
        assert rec is not None and rec.digest == DIGEST
        assert rec.meta["kind"] == "sweep_point" and rec.meta["label"] == "p"
        assert rec.meta["format"] == 1
        # float64 payloads round-trip bit-exactly — the resume guarantee.
        assert np.array_equal(rec.arrays["average_regrets"], arrays["average_regrets"])
        assert rec.arrays["average_regrets"].dtype == np.float64
        assert np.array_equal(rec.arrays["switches"], arrays["switches"])

    def test_missing_record_reads_none(self, tmp_path):
        assert read_record(tmp_path, "cd" * 32) is None

    def test_no_temp_files_left_behind(self, tmp_path):
        _write(tmp_path)
        assert not list(tmp_path.glob(f"{TMP_PREFIX}*"))

    def test_overwrite_is_clean(self, tmp_path):
        _write(tmp_path)
        arrays = {"average_regrets": np.array([9.0])}
        write_record(tmp_path, DIGEST, arrays, {"kind": "sweep_point", "label": "q"})
        rec = read_record(tmp_path, DIGEST)
        assert rec.meta["label"] == "q"
        assert np.array_equal(rec.arrays["average_regrets"], [9.0])

    def test_rejects_non_hex_digest(self, tmp_path):
        with pytest.raises(ConfigurationError, match="hex"):
            write_record(tmp_path, "../evil", {}, {})

    def test_delete_removes_both_files(self, tmp_path):
        _write(tmp_path)
        assert delete_record(tmp_path, DIGEST) == 2
        assert read_record(tmp_path, DIGEST) is None
        assert delete_record(tmp_path, DIGEST) == 0


class TestCorruptionTolerance:
    """Every partial / corrupt state must read as 'absent', not crash."""

    def test_truncated_payload_reads_none(self, tmp_path):
        _write(tmp_path)
        payload = tmp_path / f"{DIGEST}{PAYLOAD_SUFFIX}"
        payload.write_bytes(payload.read_bytes()[:20])
        assert read_record(tmp_path, DIGEST) is None

    def test_garbage_payload_reads_none(self, tmp_path):
        _write(tmp_path)
        (tmp_path / f"{DIGEST}{PAYLOAD_SUFFIX}").write_bytes(b"not an npz at all")
        assert read_record(tmp_path, DIGEST) is None

    def test_missing_payload_reads_none(self, tmp_path):
        # The state an interrupted delete (or a partially synced copy of
        # a store directory) leaves behind.
        _write(tmp_path)
        (tmp_path / f"{DIGEST}{PAYLOAD_SUFFIX}").unlink()
        assert read_record(tmp_path, DIGEST) is None

    def test_garbage_manifest_reads_none(self, tmp_path):
        _write(tmp_path)
        (tmp_path / f"{DIGEST}{MANIFEST_SUFFIX}").write_text("{not json", encoding="utf-8")
        assert read_record(tmp_path, DIGEST) is None

    def test_foreign_format_reads_none(self, tmp_path):
        _write(tmp_path)
        manifest = tmp_path / f"{DIGEST}{MANIFEST_SUFFIX}"
        manifest.write_text('{"format": 999, "kind": "sweep_point"}', encoding="utf-8")
        assert read_record(tmp_path, DIGEST) is None

    def test_orphan_payload_without_manifest_reads_none(self, tmp_path):
        # A writer killed between the payload rename and the manifest
        # rename: the record never became visible.
        _write(tmp_path)
        (tmp_path / f"{DIGEST}{MANIFEST_SUFFIX}").unlink()
        assert read_record(tmp_path, DIGEST) is None


class TestAtomicWrite:
    def test_publishes_content(self, tmp_path):
        target = tmp_path / "x.bin"
        atomic_write_bytes(target, b"hello")
        assert target.read_bytes() == b"hello"

    def test_replaces_existing(self, tmp_path):
        target = tmp_path / "x.bin"
        atomic_write_bytes(target, b"one")
        atomic_write_bytes(target, b"two")
        assert target.read_bytes() == b"two"
        assert not list(tmp_path.glob(f"{TMP_PREFIX}*"))
