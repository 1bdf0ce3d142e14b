"""ResultStore behaviour: records, maintenance, locks."""

from __future__ import annotations

import io
import os

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.store import FileLock, LockTimeout, ResultStore
from repro.store.records import MANIFEST_SUFFIX, PAYLOAD_SUFFIX, TMP_PREFIX

from tests.store.test_records import flip_entry_byte

D1 = "aa" * 32
D2 = "bb" * 32


def _npy_bytes() -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.array([1.0, 2.0]))
    return buffer.getvalue()


#: Every state a crash, a partial copy or a bad disk can leave a record
#: in, as ``(manifest path, payload path) -> None`` edits.
RECORD_STATES = {
    "intact": lambda manifest, payload: None,
    "missing_manifest": lambda manifest, payload: manifest.unlink(),
    "wrong_format_manifest": lambda manifest, payload: manifest.write_text('{"format": 999}'),
    "missing_payload": lambda manifest, payload: payload.unlink(),
    "truncated_payload": lambda manifest, payload: payload.write_bytes(payload.read_bytes()[:-20]),
    "garbage_payload": lambda manifest, payload: payload.write_bytes(b"not an npz at all"),
    "npy_payload": lambda manifest, payload: payload.write_bytes(_npy_bytes()),
    "flipped_entry_byte": lambda manifest, payload: flip_entry_byte(payload),
}


def _store_with_records(tmp_path) -> ResultStore:
    store = ResultStore(tmp_path / "root")
    for digest, label in ((D1, "one"), (D2, "two")):
        store.write_record(
            digest,
            {"average_regrets": np.array([1.0, 2.0])},
            {"kind": "sweep_point", "label": label, "parameter": "p", "value": 1},
        )
    return store


class TestRecords:
    def test_write_read_has(self, tmp_path):
        store = _store_with_records(tmp_path)
        assert store.has_record(D1) and store.has_record(D2)
        assert not store.has_record("cc" * 32)
        rec = store.read_record(D1)
        assert rec.meta["label"] == "one"
        assert np.array_equal(rec.arrays["average_regrets"], [1.0, 2.0])

    @pytest.mark.parametrize("state", sorted(RECORD_STATES))
    def test_has_record_is_exactly_a_successful_read(self, tmp_path, state):
        # "Committed" has one definition: a record the service and the
        # grid count as done must also be one their readers can load.
        store = _store_with_records(tmp_path)
        shard = store.record_dir(D1)
        RECORD_STATES[state](shard / f"{D1}{MANIFEST_SUFFIX}", shard / f"{D1}{PAYLOAD_SUFFIX}")
        readable = store.read_record(D1) is not None
        assert readable == (state == "intact")
        assert store.has_record(D1) == readable
        assert store.has_record(D2) and store.read_record(D2) is not None

    def test_sharded_layout(self, tmp_path):
        store = _store_with_records(tmp_path)
        assert (store.results_dir / D1[:2] / f"{D1}{MANIFEST_SUFFIX}").is_file()
        assert (store.results_dir / D1[:2] / f"{D1}{PAYLOAD_SUFFIX}").is_file()

    def test_iter_records_lists_committed_only(self, tmp_path):
        store = _store_with_records(tmp_path)
        # Break one record's manifest: it must drop out of the listing.
        (store.results_dir / D2[:2] / f"{D2}{MANIFEST_SUFFIX}").write_text("junk")
        listed = dict(store.iter_records())
        assert set(listed) == {D1}

    def test_read_only_store_touches_nothing(self, tmp_path):
        root = tmp_path / "never-created"
        store = ResultStore(root)
        assert not store.has_record(D1)
        assert store.read_record(D1) is None
        assert list(store.iter_records()) == []
        assert not root.exists()

    def test_coerce(self, tmp_path):
        store = ResultStore(tmp_path)
        assert ResultStore.coerce(store) is store
        assert ResultStore.coerce(str(tmp_path)).root == tmp_path
        with pytest.raises(ConfigurationError, match="store"):
            ResultStore.coerce(42)


class TestInfoAndGc:
    def test_info_counts(self, tmp_path):
        store = _store_with_records(tmp_path)
        info = store.info()
        assert info["records"] == 2
        assert info["record_bytes"] > 0
        assert info["format"] == 1

    def test_gc_on_clean_store_removes_nothing(self, tmp_path):
        store = _store_with_records(tmp_path)
        assert sum(store.gc().values()) == 0
        assert store.has_record(D1) and store.has_record(D2)

    def test_gc_sweeps_tmp_orphans_and_broken(self, tmp_path):
        store = _store_with_records(tmp_path)
        shard = store.results_dir / D1[:2]
        # 1. an abandoned temp file from a killed writer
        (shard / f"{TMP_PREFIX}deadbeef-x.npz").write_bytes(b"partial")
        # 2. an orphan payload whose manifest never landed
        orphan = "cc" * 32
        (store.results_dir / orphan[:2]).mkdir(parents=True, exist_ok=True)
        (store.results_dir / orphan[:2] / f"{orphan}{PAYLOAD_SUFFIX}").write_bytes(b"x")
        # 3. a committed record whose payload was corrupted afterwards
        (shard / f"{D1}{PAYLOAD_SUFFIX}").write_bytes(b"garbage")
        removed = store.gc(grace_seconds=0)
        assert removed["tmp"] == 1
        assert removed["orphan_payloads"] == 1
        assert removed["broken_records"] == 1
        # The broken record is fully gone; the healthy one survived.
        assert not store.has_record(D1)
        assert store.has_record(D2)
        assert store.read_record(D2) is not None

    def test_gc_grace_spares_inflight_writes(self, tmp_path):
        # A temp file / orphan payload younger than the grace period is
        # the normal transient state of an in-flight write: the default
        # gc must leave both alone so it can never race a live writer.
        store = _store_with_records(tmp_path)
        shard = store.results_dir / D1[:2]
        (shard / f"{TMP_PREFIX}young.npz").write_bytes(b"in flight")
        orphan = "cc" * 32
        (store.results_dir / orphan[:2]).mkdir(parents=True, exist_ok=True)
        young_orphan = store.results_dir / orphan[:2] / f"{orphan}{PAYLOAD_SUFFIX}"
        young_orphan.write_bytes(b"x")
        # A lease a reclaimer is renaming aside right now is in flight too.
        leases = store.sched_dir / "g" / "leases"
        leases.mkdir(parents=True)
        stolen = leases / f"{D1}.lease.stale-1-2"
        stolen.write_bytes(b"{}")
        removed = store.gc()
        assert removed["tmp"] == 0 and removed["orphan_payloads"] == 0
        assert young_orphan.exists() and stolen.exists()
        # Backdate them past the grace period: now they are debris.
        for path in (shard / f"{TMP_PREFIX}young.npz", young_orphan, stolen):
            old = path.stat().st_mtime - 2 * store.GC_GRACE_SECONDS
            os.utime(path, (old, old))
        removed = store.gc()
        assert removed["tmp"] == 2 and removed["orphan_payloads"] == 1
        assert not stolen.exists()

    def test_maintenance_tolerates_foreign_files(self, tmp_path):
        # Editor backups / OS metadata inside the store must be skipped
        # by ls, info, and gc — never crashed on, never deleted.
        store = _store_with_records(tmp_path)
        shard = store.results_dir / D1[:2]
        foreign = [shard / "NOTES.json", shard / "backup.npz", shard / "README.txt"]
        for path in foreign:
            path.write_text("not a record")
        assert set(dict(store.iter_records())) == {D1, D2}
        assert store.info()["records"] == 2
        assert sum(store.gc(grace_seconds=0).values()) == 0
        assert all(path.exists() for path in foreign)

    def test_gc_then_recompute_path(self, tmp_path):
        # End-to-end recovery: corrupt -> unreadable -> gc -> rewrite.
        store = _store_with_records(tmp_path)
        (store.results_dir / D1[:2] / f"{D1}{PAYLOAD_SUFFIX}").write_bytes(b"garbage")
        assert store.read_record(D1) is None  # tolerated before gc too
        store.gc(grace_seconds=0)
        store.write_record(D1, {"a": np.array([3.0])}, {"kind": "sweep_point"})
        assert np.array_equal(store.read_record(D1).arrays["a"], [3.0])


def _backdate(path, seconds: float) -> None:
    old = path.stat().st_mtime - seconds
    os.utime(path, (old, old))


class TestGcMaxAge:
    """Age-based breaking of orphaned lease files."""

    def test_orphaned_leases_swept_live_ones_kept(self, tmp_path):
        from repro.store import LEASE_SUFFIX, read_owner, write_owner_file

        store = _store_with_records(tmp_path)
        lease_dir = store.sched_dir / "somegrid" / "leases"
        lease_dir.mkdir(parents=True)
        dead = lease_dir / f"{D1}{LEASE_SUFFIX}"
        write_owner_file(dead, {"host": "h", "pid": 1, "acquired_unix": 0})
        _backdate(dead, 1000.0)
        live = lease_dir / f"{D2}{LEASE_SUFFIX}"
        live_owner = {"host": "h", "pid": 2, "acquired_unix": 1}
        write_owner_file(live, live_owner)
        removed = store.gc(max_age_seconds=100.0)
        assert removed["stale_leases"] == 1
        assert not dead.exists()
        assert read_owner(live) == live_owner  # heartbeating worker untouched

    def test_committed_records_are_never_age_evicted(self, tmp_path):
        store = _store_with_records(tmp_path)
        for path in store.results_dir.glob("*/*"):
            _backdate(path, 10_000.0)
        removed = store.gc(grace_seconds=0, max_age_seconds=1.0)
        assert sum(removed.values()) == 0
        assert store.has_record(D1) and store.has_record(D2)

    def test_default_gc_leaves_caches_and_leases_alone(self, tmp_path):
        from repro.store import LEASE_SUFFIX, write_owner_file

        store = _store_with_records(tmp_path)
        lease_dir = store.sched_dir / "g" / "leases"
        lease_dir.mkdir(parents=True)
        lease = lease_dir / f"{D1}{LEASE_SUFFIX}"
        write_owner_file(lease, {"host": "h", "pid": 1, "acquired_unix": 0})
        _backdate(lease, 10_000.0)
        removed = store.gc()  # no max_age: eviction stays off
        assert removed["stale_leases"] == 0
        assert lease.exists()


class TestGcRejectsNegativeAges:
    """A negative age reaches past "now": it would break a live lease, or
    take a temp file and a payload from a write in flight."""

    @pytest.mark.parametrize(
        "ages",
        [
            {"max_age_seconds": -1},
            {"grace_seconds": -10},
            {"max_age_seconds": float("nan")},
            {"grace_seconds": float("nan")},
        ],
        ids=["max_age_negative", "grace_negative", "max_age_nan", "grace_nan"],
    )
    def test_bad_age_raises_before_the_lock_and_keeps_live_state(
        self, tmp_path, monkeypatch, ages
    ):
        import repro.store.store as store_mod
        from repro.sched.leases import LeaseManager

        store = _store_with_records(tmp_path)
        lease = LeaseManager(store.sched_dir / "g").try_claim(D1)
        temp = store.results_dir / D2[:2] / f"{TMP_PREFIX}in-flight.npz"
        temp.write_bytes(b"in flight")
        landed = "cc" * 32
        (store.results_dir / landed[:2]).mkdir(parents=True, exist_ok=True)
        payload = store.results_dir / landed[:2] / f"{landed}{PAYLOAD_SUFFIX}"
        payload.write_bytes(b"manifest lands next")
        locks = []

        def spy(path, *args, **kwargs):
            locks.append(path)
            return FileLock(path, *args, **kwargs)

        monkeypatch.setattr(store_mod, "FileLock", spy)
        name = next(iter(ages))
        with pytest.raises(ConfigurationError, match=name):
            store.gc(**ages)
        assert locks == []
        assert lease.refresh()
        assert temp.exists() and payload.exists()


class TestFileLock:
    def test_exclusion_and_release(self, tmp_path):
        path = tmp_path / "x.lock"
        with FileLock(path):
            assert path.exists()
            with pytest.raises(LockTimeout):
                FileLock(path, timeout=0.05, poll=0.01, stale_after=None).acquire()
        assert not path.exists()
        with FileLock(path):  # re-acquirable after release
            pass

    def test_stale_lock_is_broken(self, tmp_path):
        path = tmp_path / "x.lock"
        path.write_text("12345\n")
        old = path.stat().st_mtime - 7200
        os.utime(path, (old, old))
        with FileLock(path, timeout=1.0, poll=0.01, stale_after=3600):
            assert path.exists()
        # The rename-steal break leaves no .stale-* debris behind.
        assert list(tmp_path.glob("*.stale-*")) == []

    def test_fresh_lock_is_not_broken(self, tmp_path):
        path = tmp_path / "x.lock"
        path.write_text("12345\n")  # a live holder's lock, current mtime
        with pytest.raises(LockTimeout):
            FileLock(path, timeout=0.1, poll=0.02, stale_after=3600).acquire()
        assert path.exists()  # never stolen
