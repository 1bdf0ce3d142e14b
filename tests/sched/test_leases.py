"""Lease protocol: exclusive claims, heartbeats, stale reclaim, the log.

Staleness is always induced by *backdating mtimes* (``os.utime``), never
by sleeping, so these tests are deterministic and fast.
"""

from __future__ import annotations

import json
import math
import os
import time

import pytest

from repro.exceptions import ConfigurationError
from repro.sched.leases import RECLAIM_LOG, Lease, LeaseManager
from repro.store import owner_token, read_owner, write_owner_file

DIGEST = "ab" * 32
TTL = 60.0


def backdate(path, seconds: float) -> None:
    old = path.stat().st_mtime - seconds
    os.utime(path, (old, old))


class TestClaims:
    def test_claim_is_exclusive(self, tmp_path):
        a = LeaseManager(tmp_path, ttl=TTL, worker_id="a")
        b = LeaseManager(tmp_path, ttl=TTL, worker_id="b")
        lease = a.try_claim(DIGEST)
        assert lease is not None
        assert b.try_claim(DIGEST) is None  # fresh lease: denied
        assert a.is_leased(DIGEST) and b.is_leased(DIGEST)
        holder = a.holder(DIGEST)
        assert holder["worker"] == "a" and holder["pid"] == os.getpid()

    def test_release_frees_the_point(self, tmp_path):
        a = LeaseManager(tmp_path, ttl=TTL)
        lease = a.try_claim(DIGEST)
        assert lease.release() is True
        assert not a.is_leased(DIGEST)
        assert a.try_claim(DIGEST) is not None  # claimable again

    def test_stale_lease_is_reclaimed_and_logged(self, tmp_path):
        a = LeaseManager(tmp_path, ttl=TTL, worker_id="dead")
        stale = a.try_claim(DIGEST)
        backdate(stale.path, 2 * TTL)
        assert not a.is_leased(DIGEST)

        b = LeaseManager(tmp_path, ttl=TTL, worker_id="rescuer")
        lease = b.try_claim(DIGEST)
        assert lease is not None
        assert b.holder(DIGEST)["worker"] == "rescuer"
        [event] = b.reclaim_events()
        assert event["digest"] == DIGEST
        assert event["evicted"]["worker"] == "dead"
        assert event["by"]["worker"] == "rescuer"
        assert b.reclaimed_count() == 1

    def test_fresh_lease_is_never_reclaimed(self, tmp_path):
        a = LeaseManager(tmp_path, ttl=TTL)
        lease = a.try_claim(DIGEST)
        for _ in range(3):
            assert LeaseManager(tmp_path, ttl=TTL).try_claim(DIGEST) is None
        assert lease.path.exists()
        assert a.reclaimed_count() == 0

    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="ttl"):
            LeaseManager(tmp_path, ttl=0.0)

    @pytest.mark.parametrize("ttl", [math.nan, math.inf, 0.0, -1.0])
    def test_ttl_must_be_finite_and_positive(self, tmp_path, ttl):
        # A NaN or infinite TTL never goes stale: a dead holder's lease
        # would block its point forever (and NaN spins the heartbeat).
        with pytest.raises(ConfigurationError, match="lease ttl"):
            LeaseManager(tmp_path, ttl=ttl)
        assert not (tmp_path / "leases").exists()


class TestHeartbeat:
    def test_refresh_bumps_mtime(self, tmp_path):
        lease = LeaseManager(tmp_path, ttl=TTL).try_claim(DIGEST)
        backdate(lease.path, 2 * TTL)
        assert lease.refresh() is True
        assert time.time() - lease.path.stat().st_mtime < TTL

    def test_refresh_and_release_fail_after_takeover(self, tmp_path):
        a = LeaseManager(tmp_path, ttl=TTL, worker_id="a")
        lease = a.try_claim(DIGEST)
        backdate(lease.path, 2 * TTL)
        thief = LeaseManager(tmp_path, ttl=TTL, worker_id="thief").try_claim(DIGEST)
        assert thief is not None
        # The evicted holder must neither refresh nor delete the thief's
        # lease — the file now belongs to someone else.
        assert lease.refresh() is False
        assert lease.release() is False
        assert read_owner(lease.path)["worker"] == "thief"

    def test_heartbeat_thread_keeps_the_lease_fresh(self, tmp_path):
        lease = LeaseManager(tmp_path, ttl=TTL).try_claim(DIGEST)
        with lease.heartbeat(0.01) as lost:
            backdate(lease.path, 2 * TTL)
            deadline = time.monotonic() + 5.0
            while time.time() - lease.path.stat().st_mtime > TTL:
                assert time.monotonic() < deadline, "heartbeat never fired"
                time.sleep(0.005)
        assert not lost.is_set()

    def test_heartbeat_reports_a_lost_lease(self, tmp_path):
        lease = LeaseManager(tmp_path, ttl=TTL, worker_id="a").try_claim(DIGEST)
        # Simulate a reclaim: the file now carries a different owner.
        lease.path.unlink()
        write_owner_file(lease.path, {**owner_token(), "worker": "thief"})
        with lease.heartbeat(0.01) as lost:
            assert lost.wait(timeout=5.0), "lost-lease event never set"


class TestReclaimLog:
    def test_missing_log_reads_empty(self, tmp_path):
        manager = LeaseManager(tmp_path, ttl=TTL)
        assert manager.reclaim_events() == []
        assert manager.reclaimed_count() == 0

    def test_torn_final_line_is_tolerated(self, tmp_path):
        manager = LeaseManager(tmp_path, ttl=TTL)
        log = tmp_path / RECLAIM_LOG
        good = json.dumps({"digest": DIGEST, "evicted": {}, "by": {}})
        log.write_text(good + "\n" + good[: len(good) // 2], encoding="utf-8")
        assert manager.reclaimed_count() == 1  # the torn tail is skipped

    def test_lease_dataclass_handles_vanished_file(self, tmp_path):
        lease = Lease(path=tmp_path / "gone.lease", token=owner_token())
        assert lease.refresh() is False
        assert lease.release() is False
