"""The payload memo: each committed payload is decoded once per process.

A memo hit must be indistinguishable from decoding the file again: the
memo is keyed by the payload's exact bytes and holds only successful
decodes, so every change to the file on disk is seen, and callers get
their own writable copies.  The suite's autouse fixture empties the
memo before every test.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

import repro.store.records as records_mod
from repro.store import ResultStore
from repro.store.records import PAYLOAD_SUFFIX, deterministic_npz_bytes, read_record, write_record

from tests.store.test_records import flip_entry_byte

DIGEST = "cd" * 32


def _arrays(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {"average_regrets": rng.random(8), "switches": rng.integers(0, 99, size=3)}


def _assert_equal_arrays(got: dict[str, np.ndarray], want: dict[str, np.ndarray]) -> None:
    assert sorted(got) == sorted(want)
    for name, array in want.items():
        assert got[name].dtype == array.dtype and np.array_equal(got[name], array)


class DecodeSpy:
    """Counts the decoder's runs (``np.load`` calls)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = np.load

        def counted(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "load", counted)


class TestHits:
    def test_cold_warm_and_emptied_memo_reads_are_equal(self, tmp_path):
        arrays = _arrays(1)
        write_record(tmp_path, DIGEST, arrays, {"kind": "k"})
        cold = read_record(tmp_path, DIGEST)
        warm = read_record(tmp_path, DIGEST)
        records_mod._PAYLOADS.clear()
        emptied = read_record(tmp_path, DIGEST)
        for record in (cold, warm, emptied):
            assert record is not None and record.meta["kind"] == "k"
            _assert_equal_arrays(record.arrays, arrays)

    def test_a_warm_read_runs_no_decode(self, tmp_path, monkeypatch):
        write_record(tmp_path, DIGEST, _arrays(1), {})
        spy = DecodeSpy(monkeypatch)
        assert read_record(tmp_path, DIGEST) is not None
        assert spy.calls == 1
        store = ResultStore(tmp_path / "root")
        store.write_record(DIGEST, _arrays(1), {})  # the same bytes, another file
        assert store.has_record(DIGEST) and store.read_record(DIGEST) is not None
        assert read_record(tmp_path, DIGEST) is not None
        assert spy.calls == 1

    def test_writes_do_not_fill_the_memo(self, tmp_path):
        write_record(tmp_path, DIGEST, _arrays(1), {})
        assert not records_mod._PAYLOADS.entries

    def test_callers_own_writable_copies(self, tmp_path):
        arrays = _arrays(2)
        write_record(tmp_path, DIGEST, arrays, {})
        first = read_record(tmp_path, DIGEST)
        assert all(array.flags.writeable for array in first.arrays.values())
        first.arrays["average_regrets"][:] = -1.0
        first.arrays["switches"] += 7
        _assert_equal_arrays(read_record(tmp_path, DIGEST).arrays, arrays)
        (memo,) = records_mod._PAYLOADS.entries.values()
        assert not any(array.flags.writeable for array in memo.values())


class TestChangesOnDiskAreSeen:
    @pytest.mark.parametrize(
        "damage",
        [
            flip_entry_byte,
            lambda payload: payload.write_bytes(payload.read_bytes()[:-20]),
            lambda payload: payload.unlink(),
        ],
        ids=["flipped_entry_byte", "truncated", "deleted"],
    )
    def test_damage_after_a_warm_read(self, tmp_path, damage):
        store = ResultStore(tmp_path)
        store.write_record(DIGEST, _arrays(3), {})
        assert store.read_record(DIGEST) is not None and store.has_record(DIGEST)
        damage(store.record_dir(DIGEST) / f"{DIGEST}{PAYLOAD_SUFFIX}")
        assert store.read_record(DIGEST) is None
        assert not store.has_record(DIGEST)

    def test_rewritten_digest_returns_the_new_arrays(self, tmp_path):
        write_record(tmp_path, DIGEST, _arrays(4), {})
        _assert_equal_arrays(read_record(tmp_path, DIGEST).arrays, _arrays(4))
        write_record(tmp_path, DIGEST, _arrays(5), {})
        _assert_equal_arrays(read_record(tmp_path, DIGEST).arrays, _arrays(5))


def _digest(i: int) -> str:
    return f"{i:064x}"


def _nbytes(arrays: dict[str, np.ndarray]) -> int:
    return sum(array.nbytes for array in arrays.values())


def _entry_size(arrays: dict[str, np.ndarray]) -> int:
    return len(deterministic_npz_bytes(arrays)) + _nbytes(arrays)


def _recount(memo) -> int:
    """The bytes the memo's entries cost, counted afresh."""
    return sum(len(key) + _nbytes(arrays) for key, arrays in memo.entries.items())


class TestBounds:
    def test_fifo_entry_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(records_mod._PAYLOADS, "max_entries", 2)
        for i in range(3):
            write_record(tmp_path, _digest(i), _arrays(i), {})
            read_record(tmp_path, _digest(i))
        entries = records_mod._PAYLOADS.entries
        assert len(entries) == 2
        assert deterministic_npz_bytes(_arrays(0)) not in entries  # oldest evicted
        assert deterministic_npz_bytes(_arrays(2)) in entries

    def test_byte_cap(self, tmp_path, monkeypatch):
        size = _entry_size(_arrays(0))
        assert all(_entry_size(_arrays(i)) == size for i in range(3))
        memo = records_mod._PAYLOADS
        monkeypatch.setattr(memo, "max_bytes", 2 * size)
        for i in range(3):
            write_record(tmp_path, _digest(i), _arrays(i), {})
            _assert_equal_arrays(read_record(tmp_path, _digest(i)).arrays, _arrays(i))
        assert len(memo.entries) == 2 and memo.nbytes == 2 * size
        # A payload larger than the whole budget is read, not stored.
        big = {"average_regrets": np.arange(1000.0)}
        write_record(tmp_path, _digest(9), big, {})
        _assert_equal_arrays(read_record(tmp_path, _digest(9)).arrays, big)
        assert deterministic_npz_bytes(big) not in memo.entries and memo.nbytes == 2 * size


class TestConcurrency:
    def test_threads_reading_through_a_tiny_memo(self, tmp_path, monkeypatch):
        # More threads than cores, switching as often as possible, over a
        # memo that evicts on almost every insert: every read must still
        # equal its record, and the byte count must match the entries.
        memo = records_mod._PAYLOADS
        n_records = 12
        records = {_digest(i): _arrays(i) for i in range(n_records)}
        for digest, arrays in records.items():
            write_record(tmp_path, digest, arrays, {})
        monkeypatch.setattr(memo, "max_entries", 3)
        monkeypatch.setattr(memo, "max_bytes", 4 * _entry_size(_arrays(0)))

        def yielding_sizeof(arrays):
            time.sleep(0)  # let another thread run inside an insert or eviction
            return _nbytes(arrays)

        monkeypatch.setattr(memo, "_sizeof", yielding_sizeof)
        digests = sorted(records)
        errors: list[BaseException] = []
        done = threading.Event()
        deadline = time.monotonic() + 1.5

        def reader(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                while time.monotonic() < deadline:
                    i = int(rng.integers(n_records))
                    record = read_record(tmp_path, digests[i])
                    assert record is not None, digests[i]
                    _assert_equal_arrays(record.arrays, records[digests[i]])
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        def monitor() -> None:
            while not done.is_set():
                with memo.lock:
                    entries, nbytes = len(memo.entries), _recount(memo)
                    if entries > memo.max_entries or nbytes != memo.nbytes:
                        errors.append(AssertionError(f"{entries} entries, {nbytes} bytes"))
                time.sleep(0.0005)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(6)]
            watcher = threading.Thread(target=monitor)
            watcher.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            done.set()
            watcher.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in (*threads, watcher))
        assert not errors, errors[:3]
        assert 0 < len(memo.entries) <= memo.max_entries
        assert memo.nbytes == _recount(memo) <= memo.max_bytes
