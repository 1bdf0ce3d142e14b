"""Regression tests for the counting engine's join-distribution cache.

The cache is one store per process, content-addressed by the
mark-probability vector ``u`` (the deficit/feedback signature), so
correctness splits into four claims:

* a round whose signature repeats reuses the cached distribution (the
  kernel is *not* called again);
* a demand or population change alters the signature and forces a
  recompute — no stale reuse;
* caching is observationally invisible: cached and uncached runs of the
  same scenario produce bit-identical traces;
* the store stays bounded and consistent under concurrent threads and
  across ``fork``.

The suite's autouse fixture empties the store before every test.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import repro.sim.counting as counting_mod
from repro.core.ant import AntAlgorithm
from repro.env.critical import lambda_for_critical_value
from repro.env.demands import DemandVector, StepDemandSchedule, uniform_demands
from repro.env.feedback import ExactBinaryFeedback, SigmoidFeedback
from repro.env.population import StepPopulation
from repro.sim.counting import CountingSimulator, JoinDistributionCache, clear_join_cache
from repro.util.mathx import exact_join_probabilities


class KernelCallCounter:
    """Monkeypatch wrapper counting exact_join_probabilities calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.keys: list[bytes] = []
        real = counting_mod.exact_join_probabilities

        def counted(u, **kwargs):
            self.calls += 1
            self.keys.append(np.asarray(u).tobytes())
            return real(u, **kwargs)

        monkeypatch.setattr(counting_mod, "exact_join_probabilities", counted)


def _binary_sim(**kwargs) -> CountingSimulator:
    # Exact-binary feedback on integer deficits: the signature repeats as
    # soon as the load vector does, which it reliably does mid-run.
    return CountingSimulator(
        AntAlgorithm(gamma=0.025),
        uniform_demands(n=2000, k=4),
        ExactBinaryFeedback(),
        seed=11,
        **kwargs,
    )


class TestCacheReuse:
    def test_repeated_signature_skips_the_kernel(self, monkeypatch):
        counter = KernelCallCounter(monkeypatch)
        sim = _binary_sim()
        sim.run(200)
        join_rounds = sim.pi_cache_hits + sim.pi_cache_misses
        assert sim.pi_cache_hits > 0, "scenario never repeated a signature"
        # The kernel ran once per *distinct* signature, not once per round.
        assert counter.calls == sim.pi_cache_misses
        assert counter.calls < join_rounds
        assert counter.calls == len(set(counter.keys))

    def test_cache_disabled_calls_kernel_every_round(self, monkeypatch):
        counter = KernelCallCounter(monkeypatch)
        sim = _binary_sim(pi_cache=False)
        sim.run(200)
        assert sim.pi_cache_hits == 0 and sim.pi_cache_misses == 0
        # One kernel call per join round (every second round has joins,
        # minus rounds with an empty idle pool).
        assert counter.calls > len(set(counter.keys))

    def test_counters_reset_between_runs(self):
        sim = _binary_sim()
        sim.run(100)
        first_total = sim.pi_cache_hits + sim.pi_cache_misses
        sim.run(100)
        # Counters cover only the second run (the cache itself stays warm,
        # so at most the first run's count of join rounds can accumulate).
        second_total = sim.pi_cache_hits + sim.pi_cache_misses
        assert 0 < second_total <= first_total

    def test_capacity_is_bounded(self, monkeypatch):
        monkeypatch.setattr(counting_mod._STORE, "max_entries", 3)
        sim = _binary_sim()
        sim.run(400)
        assert len(counting_mod._STORE.entries) <= 3


class TestCacheInvalidation:
    """The cache key IS the mark-probability vector, so 'invalidation'
    means: any demand/population change that alters the deficits alters
    the signature and forces a recompute, and a change that happens to
    reproduce an already-seen signature is *correct* to serve from cache
    (the join distribution depends on the signature alone)."""

    def test_changed_signature_recomputes_unchanged_reuses(self, monkeypatch):
        counter = KernelCallCounter(monkeypatch)
        sim = _binary_sim()
        feedback = ExactBinaryFeedback()
        d1 = uniform_demands(n=2000, k=4).as_array()
        d2 = np.array([400, 300, 200, 100])
        loads = np.array([260, 260, 240, 240])
        u1 = feedback.lack_probabilities(d1 - loads)
        sim._join_cache.distribution(u1)
        sim._join_cache.distribution(u1)  # unchanged deficits: served from cache
        assert counter.calls == 1
        u2 = feedback.lack_probabilities(d2 - loads)  # demand changed
        assert not np.array_equal(u1, u2)
        sim._join_cache.distribution(u2)
        assert counter.calls == 2

    def test_demand_step_never_served_stale(self):
        # The deterministic staleness check: a run across a demand change
        # must be bit-identical with and without the cache.
        d1 = uniform_demands(n=2000, k=4)
        d2 = DemandVector(np.array([400, 300, 200, 100]), n=2000)
        schedule = StepDemandSchedule(((0, d1), (101, d2)))

        def run(pi_cache):
            sim = CountingSimulator(
                AntAlgorithm(gamma=0.025),
                schedule,
                SigmoidFeedback(lambda_for_critical_value(d1, gamma_star=0.05)),
                seed=11,
                pi_cache=pi_cache,
            )
            out = sim.run(300, trace_stride=1)
            return sim, out.trace.loads

        cached_sim, cached = run(True)
        _, uncached = run(False)
        assert np.array_equal(cached, uncached)
        assert cached_sim.pi_cache_misses > 0

    def test_population_step_never_served_stale(self, monkeypatch):
        counter = KernelCallCounter(monkeypatch)

        def run(pi_cache):
            sim = CountingSimulator(
                AntAlgorithm(gamma=0.025),
                uniform_demands(n=2000, k=4),
                ExactBinaryFeedback(),
                seed=11,
                population=StepPopulation(((0, 2000), (101, 1200))),
                pi_cache=pi_cache,
            )
            return sim, sim.run(400, trace_stride=1).trace.loads

        cached_sim, cached = run(True)
        _, uncached = run(False)
        assert np.array_equal(cached, uncached)
        # The die-off perturbs the loads, so several distinct signatures
        # (not just the all-LACK start vector) must have been computed.
        assert cached_sim.pi_cache_misses == len(
            {k for k in counter.keys}
        ) > 1


class TestCacheTransparency:
    @pytest.mark.parametrize("feedback_factory", [
        lambda d: ExactBinaryFeedback(),
        lambda d: SigmoidFeedback(lambda_for_critical_value(d, gamma_star=0.02)),
    ])
    def test_traces_bit_identical_with_and_without_cache(self, feedback_factory):
        demand = uniform_demands(n=2000, k=4)

        def run(pi_cache: bool):
            sim = CountingSimulator(
                AntAlgorithm(gamma=0.05),
                demand,
                feedback_factory(demand),
                seed=77,
                pi_cache=pi_cache,
            )
            return sim.run(150, trace_stride=1).trace.loads

        assert np.array_equal(run(False), run(True))

    def test_prewarmed_cache_does_not_perturb_the_run(self):
        # Manually priming cache entries must not change the trajectory:
        # the rng stream is consumed only by the draws, never the kernel.
        fresh = _binary_sim().run(120, trace_stride=1).trace.loads
        warmed_sim = _binary_sim()
        for p in (0.1, 0.5, 0.9):
            warmed_sim._join_cache.distribution(np.full(4, p))
        warmed = warmed_sim.run(120, trace_stride=1).trace.loads
        assert np.array_equal(fresh, warmed)

    def test_rejects_unknown_kernel_method(self):
        # The kernel has no back ends left to choose between.
        with pytest.raises(TypeError, match="join_kernel_method"):
            _binary_sim(join_kernel_method="quadrature")

    def test_quadrature_method_accepted_end_to_end(self):
        # The default (and only) kernel is the quadrature one.
        out = _binary_sim().run(80)
        assert out.rounds == 80


class TestPerRunCounterReset:
    """Both cache counters must rewind at :meth:`run` so back-to-back
    runs on ONE simulator report per-run stats while the store stays
    warm."""

    def test_local_tier_misses_count_only_the_current_run(self, monkeypatch):
        counter = KernelCallCounter(monkeypatch)
        sim = _binary_sim()
        sim.run(150)
        assert sim.pi_cache_hits > 0 and sim.pi_cache_misses > 0
        calls_before = counter.calls
        sim.run(150)
        # Misses now equal exactly the kernel calls of the *second* run;
        # stale accumulation would add the first run's count on top.
        assert sim.pi_cache_misses == counter.calls - calls_before


def _store_lookup_counts() -> tuple[int, int]:
    """One lookup of a fixed signature in this process: (hits, misses)."""
    cache = JoinDistributionCache(enabled=True)
    cache.distribution(np.array([0.2, 0.4, 0.6]))
    return cache.hits, cache.misses


class TestProcessStore:
    """One store per process serves every engine, run, trial and thread."""

    def test_second_simulator_reuses_first_ones_kernel_work(self, monkeypatch):
        counter = KernelCallCounter(monkeypatch)
        _binary_sim().run(200)
        first_calls = counter.calls
        assert first_calls > 0
        sim2 = _binary_sim()
        sim2.run(200)
        # Identical seed -> identical signatures -> every lookup is a hit.
        assert counter.calls == first_calls
        assert sim2.pi_cache_misses == 0 and sim2.pi_cache_hits > 0

    def test_warm_store_run_bit_identical_to_uncached_run(self):
        cold = _binary_sim().run(150, trace_stride=1).trace.loads
        warm_sim = _binary_sim()
        warm = warm_sim.run(150, trace_stride=1).trace.loads
        assert warm_sim.pi_cache_misses == 0  # served wholly by the store
        plain = _binary_sim(pi_cache=False).run(150, trace_stride=1).trace.loads
        assert np.array_equal(cold, warm) and np.array_equal(warm, plain)

    def test_pi_cache_false_bypasses_the_store(self, monkeypatch):
        counter = KernelCallCounter(monkeypatch)
        sims = [_binary_sim(pi_cache=False) for _ in range(2)]
        for sim in sims:
            sim.run(100)
        # Neither run reads or fills the store; both pay the kernel.
        assert len(counting_mod._STORE.entries) == 0
        assert all(sim.pi_cache_hits == sim.pi_cache_misses == 0 for sim in sims)
        assert counter.calls > 0

    def test_stored_arrays_are_read_only_kernel_bits(self):
        cache = JoinDistributionCache(enabled=True)
        u = np.array([0.1, 0.2, 0.3, 0.4])
        pi = cache.distribution(u)
        assert not pi.flags.writeable
        assert pi.tobytes() == exact_join_probabilities(u).tobytes()
        assert counting_mod._STORE.entries[u.tobytes()] is pi
        # Writing into the caller's signature cannot reach the entry.
        u[0] = 0.9
        assert pi.tobytes() == exact_join_probabilities(np.array([0.1, 0.2, 0.3, 0.4])).tobytes()

    def test_hit_miss_counters_are_per_cache_over_one_store(self):
        u = np.array([0.5, 0.25])
        first = JoinDistributionCache(enabled=True)
        first.distribution(u)
        first.distribution(u)
        assert (first.hits, first.misses) == (1, 1)
        # A second cache starts its own counts but reads the same store.
        second = JoinDistributionCache(enabled=True)
        second.distribution(u)
        assert (second.hits, second.misses) == (1, 0)
        clear_join_cache()
        assert len(counting_mod._STORE.entries) == 0 and counting_mod._STORE.nbytes == 0
        second.distribution(u)
        assert (second.hits, second.misses) == (1, 1)

    def test_key_is_the_signature_byte_image(self):
        cache = JoinDistributionCache(enabled=True)
        u = np.array([0.3, 0.7])
        pi = cache.distribution(u)
        assert cache.distribution(u.copy()) is pi
        # One ulp away is a different key, hence a miss.
        near = np.nextafter(u, 1.0)
        assert cache.distribution(near) is not pi
        assert set(counting_mod._STORE.entries) == {u.tobytes(), near.tobytes()}
        assert (cache.hits, cache.misses) == (1, 2)

    def test_fifo_eviction_bounds_entries(self, monkeypatch):
        monkeypatch.setattr(counting_mod._STORE, "max_entries", 2)
        cache = JoinDistributionCache(enabled=True)
        signatures = [np.full(4, p) for p in (0.1, 0.2, 0.3)]
        for u in signatures:
            cache.distribution(u)
        entries = counting_mod._STORE.entries
        assert len(entries) == 2
        assert signatures[0].tobytes() not in entries  # oldest evicted
        assert signatures[2].tobytes() in entries

    def test_byte_budget_bounds_the_store(self, monkeypatch):
        entry = 4 * 8 + 5 * 8  # a k = 4 key and its (k + 1,) value
        monkeypatch.setattr(counting_mod._STORE, "max_bytes", 2 * entry)
        cache = JoinDistributionCache(enabled=True)
        for p in (0.1, 0.2, 0.3):
            cache.distribution(np.full(4, p))
        store = counting_mod._STORE
        assert len(store.entries) == 2 and store.nbytes == 2 * entry
        # A signature larger than the whole budget is served, not stored.
        big = np.full(16, 0.5)
        pi = cache.distribution(big)
        assert pi.tobytes() == exact_join_probabilities(big).tobytes()
        assert big.tobytes() not in store.entries and store.nbytes == 2 * entry

    def test_concurrent_lookups_and_inserts_stay_bounded(self, monkeypatch):
        max_entries, max_bytes = 6, 500
        monkeypatch.setattr(counting_mod._STORE, "max_entries", max_entries)
        monkeypatch.setattr(counting_mod._STORE, "max_bytes", max_bytes)
        rng = np.random.default_rng(3)
        signatures = [rng.random(k) for k in (3, 4, 5, 6) for _ in range(6)]
        expected = {u.tobytes(): exact_join_probabilities(u).tobytes() for u in signatures}
        store = counting_mod._STORE
        errors: list[BaseException] = []
        done = threading.Event()

        def worker(seed: int) -> None:
            cache = JoinDistributionCache(enabled=True)
            picks = np.random.default_rng(seed).integers(len(signatures), size=400)
            try:
                for i in picks:
                    u = signatures[i]
                    assert cache.distribution(u).tobytes() == expected[u.tobytes()]
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        def monitor() -> None:
            while not done.is_set():
                with store.lock:
                    entries = len(store.entries)
                    nbytes = sum(len(key) + pi.nbytes for key, pi in store.entries.items())
                    if entries > max_entries or nbytes > max_bytes or nbytes != store.nbytes:
                        errors.append(AssertionError(f"{entries} entries, {nbytes} bytes"))
                time.sleep(0.0005)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
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
        assert 0 < len(store.entries) <= max_entries and store.nbytes <= max_bytes

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_fork_while_another_thread_holds_the_insert_lock(self):
        store = counting_mod._STORE
        held, release = threading.Event(), threading.Event()

        def hold() -> None:
            with store.lock:
                held.set()
                release.wait(30)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        try:
            assert held.wait(10)
            with warnings.catch_warnings():
                # Python >= 3.12 warns about forking a threaded process.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the child: one miss, one insert, then exit
                code = 1
                try:
                    cache = JoinDistributionCache(enabled=True)
                    u = np.array([0.25, 0.5, 0.75])
                    pi = cache.distribution(u)
                    stored = store.entries.get(u.tobytes()) is pi
                    code = 0 if stored and cache.misses == 1 else 1
                finally:
                    os._exit(code)
            deadline = time.monotonic() + 10
            while True:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    pytest.fail("the forked child blocked on the inherited insert lock")
                time.sleep(0.01)
            assert os.waitstatus_to_exitcode(status) == 0
        finally:
            release.set()
            holder.join(10)
        assert not holder.is_alive()

    def test_pool_worker_store_survives_between_tasks(self):
        # A worker process keeps its store from one task to the next, so
        # a pool amortizes the kernel across the trials each worker runs.
        with ProcessPoolExecutor(max_workers=1) as pool:
            first = pool.submit(_store_lookup_counts).result()
            second = pool.submit(_store_lookup_counts).result()
        assert (first, second) == ((0, 1), (1, 0))

    def test_rejects_removed_shared_pi_cache_option(self):
        # The process store replaced the opt-in cross-trial cache.
        with pytest.raises(TypeError, match="shared_pi_cache"):
            _binary_sim(shared_pi_cache=True)
