"""DiskPiCache: persistence, mmap semantics, corruption, equivalence.

The load-bearing claim is equivalence: a distribution served by the disk
tier is byte-for-byte the array the in-memory
:class:`~repro.sim.pi_cache.SharedPiCache` (or the kernel itself) would
have produced, so disk-cached simulations stay bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.pi_cache import SharedPiCache
from repro.store.pi_disk import DiskPiCache
from repro.util.mathx import exact_join_probabilities


def _key(u: np.ndarray, tag: str | None = None):
    return SharedPiCache.key(u) if tag is None else (tag, u.tobytes())


class TestRoundTrip:
    def test_put_get_bit_exact(self, tmp_path):
        cache = DiskPiCache(tmp_path)
        u = np.random.default_rng(0).random(16)
        pi = exact_join_probabilities(u)
        cache.put(_key(u), pi)
        out = cache.get(_key(u))
        assert out is not None
        assert np.array_equal(np.asarray(out), pi)  # bit-exact round trip
        assert out.dtype == np.float64

    def test_get_is_readonly_mmap(self, tmp_path):
        cache = DiskPiCache(tmp_path)
        u = np.array([0.25, 0.5])
        cache.put(_key(u), np.array([0.3, 0.3, 0.4]))
        out = cache.get(_key(u))
        assert isinstance(out, np.memmap)
        assert not out.flags.writeable

    def test_non_mmap_mode(self, tmp_path):
        cache = DiskPiCache(tmp_path, mmap=False)
        u = np.array([0.25, 0.5])
        cache.put(_key(u), np.array([0.3, 0.3, 0.4]))
        out = cache.get(_key(u))
        assert not isinstance(out, np.memmap)
        assert not out.flags.writeable
        assert np.array_equal(out, [0.3, 0.3, 0.4])

    def test_miss_on_absent_key(self, tmp_path):
        cache = DiskPiCache(tmp_path)
        assert cache.get(_key(np.array([0.1]))) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_methods_are_disjoint_namespaces(self, tmp_path):
        # Each key tag (a numerics version; a kernel back end in older
        # stores) is its own directory: entries never cross tags.
        cache = DiskPiCache(tmp_path)
        u = np.array([0.25, 0.5])
        cache.put(_key(u, "quadrature"), np.array([0.3, 0.3, 0.4]))
        assert cache.get(_key(u)) is None
        assert cache.get(_key(u, "quadrature")) is not None

    def test_len_and_nbytes(self, tmp_path):
        cache = DiskPiCache(tmp_path)
        assert len(cache) == 0 and cache.nbytes() == 0
        for p in (0.1, 0.2):
            u = np.array([p])
            cache.put(_key(u), np.array([0.5, 0.5]))
        assert len(cache) == 2
        assert cache.nbytes() > 0

    def test_concurrent_style_double_put_is_harmless(self, tmp_path):
        # Two workers racing on one key write byte-identical files;
        # last-rename-wins must leave a valid entry and no temp debris.
        cache = DiskPiCache(tmp_path)
        u = np.array([0.4, 0.6])
        pi = np.array([0.2, 0.3, 0.5])
        cache.put(_key(u), pi)
        cache.put(_key(u), pi)
        assert np.array_equal(np.asarray(cache.get(_key(u))), pi)
        assert not list(tmp_path.rglob(".tmp-*"))


class TestCorruption:
    def test_truncated_entry_reads_as_miss(self, tmp_path):
        cache = DiskPiCache(tmp_path)
        u = np.array([0.25, 0.5])
        cache.put(_key(u), np.array([0.3, 0.3, 0.4]))
        path = cache.path_for(_key(u))
        path.write_bytes(path.read_bytes()[:8])
        assert cache.get(_key(u)) is None

    def test_wrong_shape_entry_reads_as_miss(self, tmp_path):
        # A foreign/garbled file that still parses as npy must fail the
        # shape validation (k + 1 recovered from the key) and be treated
        # as a miss, never served as data.
        cache = DiskPiCache(tmp_path)
        u = np.array([0.25, 0.5])
        key = _key(u)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.save(path, np.zeros(17))
        assert cache.get(key) is None

    def test_recovery_is_rewrite(self, tmp_path):
        cache = DiskPiCache(tmp_path)
        u = np.array([0.25, 0.5])
        pi = np.array([0.3, 0.3, 0.4])
        cache.put(_key(u), pi)
        cache.path_for(_key(u)).write_bytes(b"junk")
        assert cache.get(_key(u)) is None
        cache.put(_key(u), pi)  # the caller recomputes and re-publishes
        assert np.array_equal(np.asarray(cache.get(_key(u))), pi)


class TestSharedCacheEquivalence:
    """DiskPiCache <-> SharedPiCache: the tiers serve identical bytes."""

    def test_disk_tier_serves_what_memory_tier_stored(self, tmp_path):
        u = np.random.default_rng(1).random(32)
        pi = exact_join_probabilities(u)
        key = SharedPiCache.key(u)
        writer = SharedPiCache(disk=DiskPiCache(tmp_path))
        stored = writer.put(key, pi)
        # A *different* process/session: fresh memory tier, same disk.
        reader = SharedPiCache(disk=DiskPiCache(tmp_path))
        out, tier = reader.fetch(key)
        assert tier == "disk" and reader.disk_hits == 1
        assert np.array_equal(np.asarray(out), np.asarray(stored))
        assert np.array_equal(np.asarray(out), pi)
        # Second fetch is pinned in memory: no second disk read.
        out2, tier2 = reader.fetch(key)
        assert tier2 == "memory"
        assert np.array_equal(np.asarray(out2), pi)

    def test_disk_hits_are_pinned_as_plain_arrays(self, tmp_path):
        # Regression: pinning the memmap itself would hold one open file
        # mapping per entry for the cache's lifetime — thousands of
        # distinct signatures would exhaust the process fd limit.  The
        # memory tier must hold detached copies.
        writer = SharedPiCache(disk=DiskPiCache(tmp_path))
        key = SharedPiCache.key(np.array([0.4, 0.6]))
        writer.put(key, np.array([0.2, 0.3, 0.5]))
        reader = SharedPiCache(disk=DiskPiCache(tmp_path))
        out, tier = reader.fetch(key)
        assert tier == "disk"
        assert not isinstance(out, np.memmap)
        assert not out.flags.writeable
        assert not isinstance(reader._entries[key], np.memmap)

    def test_memoryless_counters_without_disk(self, tmp_path):
        cache = SharedPiCache()
        key = SharedPiCache.key(np.array([0.5]))
        assert cache.fetch(key) == (None, None)
        assert (cache.hits, cache.disk_hits, cache.misses) == (0, 0, 1)

    def test_disk_accepts_path_argument(self, tmp_path):
        cache = SharedPiCache(disk=str(tmp_path / "pi"))
        assert isinstance(cache.disk, DiskPiCache)

    def test_pickle_token_carries_disk_root(self, tmp_path):
        import pickle

        from repro.sim import pi_cache as pc

        cache = SharedPiCache(disk=DiskPiCache(tmp_path / "pi"))
        token = cache._token
        payload = pickle.dumps(cache)
        # Same process: resolves to the same live object.
        assert pickle.loads(payload) is cache
        # Simulate a worker process: wipe the registry entry so the
        # token resolves fresh — the disk root must be re-attached.
        del pc._PROCESS_REGISTRY[token]
        revived = pickle.loads(payload)
        assert revived is not cache
        assert revived.disk is not None
        assert revived.disk.root == cache.disk.root
        pc._PROCESS_PINNED.pop(token, None)

    def test_clear_leaves_disk_untouched(self, tmp_path):
        disk = DiskPiCache(tmp_path)
        cache = SharedPiCache(disk=disk)
        key = SharedPiCache.key(np.array([0.5]))
        cache.put(key, np.array([0.5, 0.5]))
        cache.clear()
        assert len(cache) == 0
        assert len(disk) == 1  # persistent tier belongs to the machine


class TestCountingEngineDiskTier:
    """pi_cache_disk_hits: the acceptance-criterion stat end to end."""

    def _sim(self, cache):
        from repro.core.ant import AntAlgorithm
        from repro.env.demands import uniform_demands
        from repro.env.feedback import ExactBinaryFeedback
        from repro.sim.counting import CountingSimulator

        return CountingSimulator(
            AntAlgorithm(gamma=0.025),
            uniform_demands(n=2000, k=4),
            ExactBinaryFeedback(),
            seed=11,
            shared_pi_cache=cache,
        )

    def test_second_session_hits_disk_and_is_bit_identical(self, tmp_path):
        # Session 1: cold everything; pays the kernel, populates disk.
        cache1 = SharedPiCache(disk=DiskPiCache(tmp_path))
        sim1 = self._sim(cache1)
        first = sim1.run(150, trace_stride=1).trace.loads
        assert sim1.pi_cache_disk_hits == 0
        assert cache1.disk.writes > 0
        # Session 2: fresh memory tiers (new process in real life), same
        # disk — every first-seen signature is served from disk.
        cache2 = SharedPiCache(disk=DiskPiCache(tmp_path))
        sim2 = self._sim(cache2)
        second = sim2.run(150, trace_stride=1).trace.loads
        assert sim2.pi_cache_disk_hits > 0
        assert sim2.pi_cache_misses == 0  # nothing recomputed
        assert sim2.pi_cache_hits == (
            sim2.pi_cache_local_hits
            + sim2.pi_cache_shared_hits
            + sim2.pi_cache_disk_hits
        )
        assert np.array_equal(first, second)

    def test_disk_tier_bit_identical_to_no_cache(self, tmp_path):
        cache = SharedPiCache(disk=DiskPiCache(tmp_path))
        self._sim(cache).run(150)  # populate disk
        warmed = self._sim(SharedPiCache(disk=DiskPiCache(tmp_path)))
        loads_warm = warmed.run(150, trace_stride=1).trace.loads
        from repro.core.ant import AntAlgorithm
        from repro.env.demands import uniform_demands
        from repro.env.feedback import ExactBinaryFeedback
        from repro.sim.counting import CountingSimulator

        plain = CountingSimulator(
            AntAlgorithm(gamma=0.025),
            uniform_demands(n=2000, k=4),
            ExactBinaryFeedback(),
            seed=11,
            pi_cache=False,
        )
        loads_plain = plain.run(150, trace_stride=1).trace.loads
        assert np.array_equal(loads_warm, loads_plain)

    @pytest.mark.slow
    def test_process_pool_workers_share_the_disk_tier(self, tmp_path):
        # Trials shipped to pool workers re-attach the disk root from the
        # pickled token; a second parallel run must be served from disk.
        from repro.scenario import ScenarioSpec, run_scenario

        spec = ScenarioSpec(
            algorithm={"name": "ant", "params": {"gamma": 0.025}},
            demand={"name": "uniform", "params": {"n": 2000, "k": 4}},
            feedback={"name": "exact"},
            engine={"name": "counting"},
            rounds=150,
            seed=11,
        )
        serial = run_scenario(spec, trials=4)
        cache1 = SharedPiCache(disk=DiskPiCache(tmp_path))
        run_scenario(spec, trials=4, parallel=2, shared_pi_cache=cache1)
        disk = DiskPiCache(tmp_path)
        assert len(disk) > 0  # workers published to the shared disk root
        cache2 = SharedPiCache(disk=DiskPiCache(tmp_path))
        second = run_scenario(spec, trials=4, parallel=2, shared_pi_cache=cache2)
        assert np.array_equal(serial.average_regrets, second.average_regrets)
