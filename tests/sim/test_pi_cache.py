"""Regression tests for the counting engine's join-distribution cache.

The cache is content-addressed by the mark-probability vector ``u`` (the
deficit/feedback signature), so correctness splits into three claims:

* a round whose signature repeats reuses the cached distribution (the
  kernel is *not* called again);
* a demand or population change alters the signature and forces a
  recompute — no stale reuse;
* caching is observationally invisible: cached and uncached runs of the
  same scenario produce bit-identical traces.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.sim.counting as counting_mod
from repro.core.ant import AntAlgorithm
from repro.env.critical import lambda_for_critical_value
from repro.env.demands import DemandVector, StepDemandSchedule, uniform_demands
from repro.env.feedback import ExactBinaryFeedback, SigmoidFeedback
from repro.env.population import StepPopulation
from repro.sim.counting import PI_CACHE_MAX_ENTRIES, CountingSimulator


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
        monkeypatch.setattr(counting_mod, "PI_CACHE_MAX_ENTRIES", 3)
        sim = _binary_sim()
        sim.run(400)
        assert len(sim._join_cache._local) <= 3


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


class TestSharedPiCacheObject:
    """Unit behaviour of the cross-trial cache store itself."""

    def test_put_get_roundtrip_readonly(self):
        from repro.sim.pi_cache import SharedPiCache

        cache = SharedPiCache()
        pi = np.array([0.25, 0.25, 0.5])
        key = SharedPiCache.key(np.array([0.1, 0.2]))
        stored = cache.put(key, pi)
        assert not stored.flags.writeable
        assert cache.fetch(key) is stored
        np.testing.assert_array_equal(stored, pi)
        # The stored entry is a copy: mutating the source cannot reach it.
        pi[0] = 99.0
        np.testing.assert_array_equal(cache.fetch(key), [0.25, 0.25, 0.5])

    def test_hit_miss_counters(self):
        from repro.sim.pi_cache import SharedPiCache

        cache = SharedPiCache()
        key = SharedPiCache.key(np.array([0.5]))
        assert cache.fetch(key) is None
        cache.put(key, np.array([0.5, 0.5]))
        assert cache.fetch(key) is not None
        assert (cache.hits, cache.misses) == (1, 1)
        cache.clear()
        assert (cache.hits, cache.misses) == (0, 0) and len(cache) == 0

    def test_fifo_eviction_bounds_capacity(self):
        from repro.sim.pi_cache import SharedPiCache

        cache = SharedPiCache(max_entries=2)
        keys = [SharedPiCache.key(np.array([p])) for p in (0.1, 0.2, 0.3)]
        for key in keys:
            cache.put(key, np.array([0.5, 0.5]))
        assert len(cache) == 2
        assert cache.fetch(keys[0]) is None  # oldest evicted
        assert cache.fetch(keys[2]) is not None

    def test_key_embeds_method_and_signature(self):
        # The key is the signature's byte image, as in the local tier.
        from repro.sim.pi_cache import SharedPiCache

        u = np.array([0.3, 0.7])
        assert SharedPiCache.key(u) == u.tobytes()
        assert SharedPiCache.key(u) != SharedPiCache.key(u + 1e-16)
        assert SharedPiCache.key(u) == SharedPiCache.key(u.copy())

    def test_pickle_resolves_to_same_instance_in_process(self):
        import pickle

        from repro.sim.pi_cache import SharedPiCache

        cache = SharedPiCache()
        key = SharedPiCache.key(np.array([0.4]))
        cache.put(key, np.array([0.4, 0.6]))
        revived = pickle.loads(pickle.dumps(cache))
        assert revived is cache  # same live object, contents intact

    def test_unknown_token_builds_fresh_process_local_cache(self):
        # What a ProcessPoolExecutor worker does on first unpickle: no
        # registered instance for the token, so a fresh empty cache is
        # created and registered under it for the *next* trial.
        from repro.sim import pi_cache as pc

        first = pc._resolve_token("feedbeef" * 4, 128)
        again = pc._resolve_token("feedbeef" * 4, 128)
        assert first is again
        assert len(first) == 0 and first.max_entries == 128

    def test_worker_side_cache_survives_between_trials(self):
        # Regression: between two pool.map trials a worker holds NO
        # strong reference to the cache (the executor drops the factory
        # once the trial returns).  A cache materialized from a token
        # must therefore be pinned for the process lifetime, or every
        # trial would start cold and amortization would silently vanish.
        import gc

        from repro.sim import pi_cache as pc
        from repro.sim.pi_cache import SharedPiCache

        token = "cafef00d" * 4
        first = pc._resolve_token(token, 64)  # trial 1 unpickles
        key = SharedPiCache.key(np.array([0.3]))
        first.put(key, np.array([0.3, 0.7]))
        del first  # trial 1 finished; worker drops everything
        gc.collect()
        again = pc._resolve_token(token, 64)  # trial 2 unpickles
        assert again.fetch(key) is not None, "worker cache was garbage-collected between trials"

    def test_home_process_cache_is_not_leaked_by_the_registry(self):
        # In the constructing process the registry must stay weak: once
        # the owner drops the cache, its entries are freed.
        import gc
        import weakref

        from repro.sim.pi_cache import SharedPiCache

        cache = SharedPiCache()
        ref = weakref.ref(cache)
        del cache
        gc.collect()
        assert ref() is None

    def test_rejects_bad_capacity(self):
        from repro.sim.pi_cache import SharedPiCache

        with pytest.raises(Exception, match="max_entries"):
            SharedPiCache(max_entries=0)


class TestPerRunCounterReset:
    """Every cache counter — local, shared, miss — must rewind at
    :meth:`run` so back-to-back runs on ONE simulator report per-run
    stats while the caches themselves stay warm."""

    def test_local_tier_misses_count_only_the_current_run(self, monkeypatch):
        counter = KernelCallCounter(monkeypatch)
        sim = _binary_sim()
        sim.run(150)
        assert sim.pi_cache_local_hits > 0 and sim.pi_cache_misses > 0
        calls_before = counter.calls
        sim.run(150)
        # Misses now equal exactly the kernel calls of the *second* run;
        # stale accumulation would add the first run's count on top.
        assert sim.pi_cache_misses == counter.calls - calls_before
        assert sim.pi_cache_hits == sim.pi_cache_local_hits

    def test_shared_tier_hits_rewind(self):
        from repro.sim.pi_cache import SharedPiCache

        cache = SharedPiCache()
        make = lambda: _binary_sim(shared_pi_cache=cache)  # noqa: E731
        make().run(200)
        sim2 = make()
        sim2.run(200)
        assert sim2.pi_cache_shared_hits > 0 and sim2.pi_cache_misses == 0
        sim2.run(200)
        # Every shared entry is by now also in sim2's local cache, so the
        # second run cannot touch the shared tier at all; a stale counter
        # would still show the first run's hits.
        assert sim2.pi_cache_shared_hits == 0
        assert sim2.pi_cache_hits == sim2.pi_cache_local_hits + sim2.pi_cache_shared_hits


class TestSharedPiCacheInSimulator:
    """The counting engine reading through a cross-trial cache."""

    def _shared_pair(self, **kwargs):
        from repro.sim.pi_cache import SharedPiCache

        cache = SharedPiCache()
        make = lambda: _binary_sim(shared_pi_cache=cache, **kwargs)  # noqa: E731
        return cache, make

    def test_second_simulator_reuses_first_ones_kernel_work(self, monkeypatch):
        counter = KernelCallCounter(monkeypatch)
        cache, make = self._shared_pair()
        make().run(200)
        first_calls = counter.calls
        assert first_calls > 0
        sim2 = make()
        sim2.run(200)
        # Identical seed -> identical signatures -> every lookup that the
        # local cache misses is served by the shared cache, zero recompute.
        assert counter.calls == first_calls
        assert sim2.pi_cache_misses == 0
        assert sim2.pi_cache_shared_hits > 0

    def test_stats_distinguish_shared_from_local_hits(self):
        cache, make = self._shared_pair()
        sim1 = make()
        sim1.run(200)
        assert sim1.pi_cache_shared_hits == 0  # nothing to share yet
        assert sim1.pi_cache_local_hits > 0
        assert sim1.pi_cache_hits == sim1.pi_cache_local_hits
        sim2 = make()
        sim2.run(200)
        assert sim2.pi_cache_shared_hits > 0
        assert sim2.pi_cache_hits == (
            sim2.pi_cache_local_hits + sim2.pi_cache_shared_hits
        )

    def test_shared_cache_run_bit_identical_to_unshared(self):
        cache, make = self._shared_pair()
        make().run(150)  # warm the shared cache
        warmed = make().run(150, trace_stride=1).trace.loads
        plain = _binary_sim().run(150, trace_stride=1).trace.loads
        assert np.array_equal(warmed, plain)

    def test_pi_cache_false_disables_shared_layer_too(self, monkeypatch):
        counter = KernelCallCounter(monkeypatch)
        cache, make = self._shared_pair(pi_cache=False)
        make().run(100)
        make().run(100)
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0
        assert counter.calls > 0

    def test_quadrature_method_accepted_end_to_end(self):
        # The default (and only) kernel is the quadrature one.
        out = _binary_sim().run(80)
        assert out.rounds == 80

    def test_rejects_non_cache_object(self):
        with pytest.raises(Exception, match="shared_pi_cache"):
            _binary_sim(shared_pi_cache={"not": "a cache"})
