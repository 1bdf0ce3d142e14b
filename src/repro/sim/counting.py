"""Task-level counting engine: O(k) work per round, exact in distribution.

For Algorithm Ant and the trivial algorithm under noise that is i.i.d.
across ants, the colony's per-round transition depends on the assignment
only through the load vector ``W`` — individual ants on the same task are
exchangeable.  The engine therefore simulates loads directly:

* temporary pauses: ``Binomial(W_j, c_s * gamma)`` per task;
* permanent leaves: each phase-start worker of task ``j`` leaves iff both
  its samples read OVERLOAD *and* its ``gamma/c_d`` coin lands, i.e.
  ``Binomial(W_j, (1-p1_j)(1-p2_j) * gamma/c_d)``;
* joins: an idle ant marks task ``j`` underloaded w.p. ``u_j = p1_j p2_j``
  independently across tasks and joins uniformly among its marked tasks —
  the exact marginal action distribution ``pi[j] = u_j E[1/(1+B_j)]``
  (``B_j`` the Poisson-binomial count of *other* marked tasks) is
  computed by the exact join kernel
  (:func:`repro.util.mathx.exact_join_probabilities`, a loop-free
  Gauss-Legendre quadrature that is exact in law at every k) and the
  joint join counts drawn as one ``Multinomial(idle, pi)``.  A
  content-addressed cache keyed on the mark-probability vector lets
  rounds whose deficit/feedback signature repeats skip the kernel
  entirely, and an optional :class:`~repro.sim.pi_cache.SharedPiCache`
  extends that reuse across the trials of a sweep.  This keeps the engine genuinely
  polynomial in ``k`` — many-task scenarios (k = 64..16384) run exactly;
  the old ``O(2^k k)`` subset enumerator survives only as the test
  oracle, and per-idle-ant sampling (``join_strategy="per_ant"``) only
  as a distributional cross-check.

This module holds one trial's configuration (:class:`CountingSimulator`)
and the join-distribution cache.  The round programs live in
:mod:`repro.sim.batched`: a single run is a one-lane batch, and
:func:`repro.sim.runner.run_trials` advances multi-trial runs as
batches of lanes.

This is the guides' "algorithmic optimization first": identical law to
the agent engine (property-tested in
``tests/sim/test_engine_equivalence.py``) at a per-round cost independent
of ``n``.  It makes the ``t ~ n^4``-scale claims of Theorem 3.1
empirically checkable on a laptop.
"""

from __future__ import annotations

import numpy as np

from repro.core.ant import AntAlgorithm
from repro.core.precise_sigmoid import PreciseSigmoidAlgorithm
from repro.core.trivial import TrivialAlgorithm
from repro.env.demands import DemandSchedule, DemandVector
from repro.env.feedback import FeedbackModel
from repro.env.population import PopulationSchedule, StaticPopulation
from repro.exceptions import ConfigurationError
from repro.obs import complete_span, get_registry
from repro.obs import monotonic as obs_monotonic
from repro.sim.engine import SimulationResult, _coerce_schedule
from repro.sim.pi_cache import SharedPiCache
from repro.util.mathx import exact_join_probabilities
from repro.util.rng import RngFactory

__all__ = [
    "CountingSimulator",
    "JoinCacheStats",
    "JoinDistributionCache",
    "JOIN_STRATEGIES",
    "PI_CACHE_MAX_ENTRIES",
]

#: How the joint join counts of the idle pool are drawn each decision
#: round.  Both are exact in distribution: ``"exact"`` (default) is one
#: ``Multinomial(idle, pi)`` over the join kernel's action
#: distribution; ``"per_ant"`` simulates every idle ant's marks
#: (O(idle * k)) and exists as a cross-check of the kernel.
JOIN_STRATEGIES = ("exact", "per_ant")

#: Capacity of the per-simulator join-distribution cache.  Entries are
#: content-addressed by the mark-probability vector ``u`` (the
#: deficit/feedback signature), so the cache can never serve a stale
#: distribution — a demand, load, or population change alters ``u`` and
#: therefore the key.  Eviction is FIFO once the capacity is reached;
#: each entry holds one ``(k + 1,)`` float64 array.
PI_CACHE_MAX_ENTRIES = 512


class JoinDistributionCache:
    """Content-addressed join-distribution lookup, all tiers in one place.

    Every :class:`CountingSimulator` owns one, and a batched run
    (:class:`repro.sim.batched.BatchedCountingSimulator`) adopts its
    first lane's cache for all of its lanes — which is exactly the
    cross-trial signature deduplication batching exists for, and keeps a
    one-lane run's cache warm across repeated runs.  Lookup order is the
    local dict (FIFO-bounded by :data:`PI_CACHE_MAX_ENTRIES`), then the
    optional cross-trial :class:`~repro.sim.pi_cache.SharedPiCache`,
    then the kernel itself; fresh results are published back to both
    tiers.  Both key on the byte image of the mark-probability vector
    ``u``, so stale reuse is structurally impossible.  Per-tier hit/miss
    counters live here; engines expose them and :meth:`reset_stats`
    rewinds them at each run.
    """

    def __init__(self, *, enabled: bool, shared: SharedPiCache | None) -> None:
        self.enabled = bool(enabled)
        self.shared = shared if self.enabled else None
        self._local: dict[bytes, np.ndarray] = {}
        self.local_hits = 0
        self.shared_hits = 0
        self.misses = 0
        # Cumulative process-wide instruments (never reset): the per-run
        # ints above remain the engines' per-run stats view, the bound
        # registry counters are the observability view.  Bound once here
        # so the lookup hot path pays one attribute read + one add.
        registry = get_registry()
        self._obs_tiers = {
            tier: registry.counter("repro_pi_cache_lookups_total", tier=tier)
            for tier in ("local", "shared", "miss")
        }
        self._obs_kernel_seconds = registry.histogram(
            "repro_join_kernel_seconds", method="quadrature"
        )

    def reset_stats(self) -> None:
        """Rewind every per-tier counter (cache *contents* stay warm —
        they are content-addressed, so reuse across runs is correct)."""
        self.local_hits = 0
        self.shared_hits = 0
        self.misses = 0

    @property
    def hits(self) -> int:
        """Total hits (local + shared) since the last reset."""
        return self.local_hits + self.shared_hits

    def stats(self) -> dict[str, int]:
        """The per-run tier counters as a plain dict (compat/trace view)."""
        return {
            "local_hits": self.local_hits,
            "shared_hits": self.shared_hits,
            "misses": self.misses,
        }

    def distribution(self, u: np.ndarray) -> np.ndarray:
        """The exact action distribution for mark probabilities ``u``."""
        if not self.enabled:
            return self._run_kernel(u)
        key = u.tobytes()
        pi = self._local.get(key)
        if pi is not None:
            self.local_hits += 1
            self._obs_tiers["local"].inc()
            return pi
        if self.shared is not None:
            pi = self.shared.fetch(key)
            if pi is not None:
                self.shared_hits += 1
                self._obs_tiers["shared"].inc()
                self._store_local(key, pi)
                return pi
        self.misses += 1
        self._obs_tiers["miss"].inc()
        pi = self._run_kernel(u)
        if self.shared is not None:
            pi = self.shared.put(key, pi)
        self._store_local(key, pi)
        return pi

    def _run_kernel(self, u: np.ndarray) -> np.ndarray:
        """Run the exact join kernel, timed through the clock seam.

        The duration feeds the kernel-latency histogram always and the
        trace (as a ``join_kernel`` span) only when a tracer is
        installed — misses are the expensive operation, so tracing at
        miss granularity keeps the null-overhead guarantee.
        """
        start = obs_monotonic()
        pi = exact_join_probabilities(u)
        dur = obs_monotonic() - start
        self._obs_kernel_seconds.observe(dur)
        complete_span("join_kernel", dur, method="quadrature", k=int(u.shape[0]))
        return pi

    def _store_local(self, key: bytes, pi: np.ndarray) -> None:
        if len(self._local) >= PI_CACHE_MAX_ENTRIES:
            self._local.pop(next(iter(self._local)))
        self._local[key] = pi


class JoinCacheStats:
    """Per-run ``pi_cache_*`` views of an engine's :class:`JoinDistributionCache`.

    :attr:`pi_cache_local_hits` counts lookups served by the engine's own
    cache, :attr:`pi_cache_shared_hits` those served by the cross-trial
    :class:`~repro.sim.pi_cache.SharedPiCache`, and
    :attr:`pi_cache_misses` the lookups that actually ran the kernel;
    :attr:`pi_cache_hits` is their hit total.  All reset at each run.
    """

    _join_cache: JoinDistributionCache

    @property
    def pi_cache_local_hits(self) -> int:
        return self._join_cache.local_hits

    @property
    def pi_cache_shared_hits(self) -> int:
        return self._join_cache.shared_hits

    @property
    def pi_cache_misses(self) -> int:
        return self._join_cache.misses

    @property
    def pi_cache_hits(self) -> int:
        return self._join_cache.hits


class CountingSimulator(JoinCacheStats):
    """O(k)-per-round simulator for Algorithm Ant / trivial algorithm.

    Parameters mirror :class:`~repro.sim.engine.Simulator`; the initial
    state is given as per-task loads (plus implied idle ants) rather than
    per-ant assignments.  ``join_strategy`` selects how the idle pool's
    joint join counts are drawn (see :data:`JOIN_STRATEGIES`); both
    choices are exact in distribution.

    ``pi_cache`` enables the content-addressed join-distribution cache,
    which makes rounds whose mark probabilities repeat (unchanged
    deficits, or saturated feedback) skip the kernel
    (:func:`repro.util.mathx.exact_join_probabilities`) entirely.
    ``shared_pi_cache`` additionally plugs the simulator into a
    cross-trial :class:`~repro.sim.pi_cache.SharedPiCache`, so *other*
    trials' kernel work is reused too (keyed by the signature — see that
    module for why stale reuse is structurally impossible).  Both knobs
    are pure performance choices: every combination draws from the
    identical action distribution, and cached runs are bit-identical to
    uncached ones.  Cache effectiveness is
    reported by the ``pi_cache_*`` properties (see
    :class:`JoinCacheStats`).  ``pi_cache=False`` disables every layer.

    Raises
    ------
    ConfigurationError
        If the algorithm is not supported or the feedback is not i.i.d.
        across ants (``feedback.iid_across_ants`` False).
    """

    def __init__(
        self,
        algorithm: AntAlgorithm | TrivialAlgorithm,
        demand: DemandVector | DemandSchedule,
        feedback: FeedbackModel,
        *,
        initial_loads: np.ndarray | None = None,
        seed: int | np.random.Generator | None = None,
        population: PopulationSchedule | None = None,
        join_strategy: str = "exact",
        pi_cache: bool = True,
        shared_pi_cache: SharedPiCache | None = None,
    ) -> None:
        if join_strategy not in JOIN_STRATEGIES:
            raise ConfigurationError(
                f"join_strategy must be one of {JOIN_STRATEGIES}, got {join_strategy!r}"
            )
        self.join_strategy = join_strategy
        if shared_pi_cache is not None and not isinstance(shared_pi_cache, SharedPiCache):
            raise ConfigurationError(
                "shared_pi_cache must be a repro.sim.pi_cache.SharedPiCache, "
                f"got {type(shared_pi_cache).__name__}"
            )
        self.pi_cache_enabled = bool(pi_cache)
        self.shared_pi_cache = shared_pi_cache if self.pi_cache_enabled else None
        if not isinstance(algorithm, (AntAlgorithm, TrivialAlgorithm, PreciseSigmoidAlgorithm)):
            raise ConfigurationError(
                "CountingSimulator supports AntAlgorithm, TrivialAlgorithm and "
                f"PreciseSigmoidAlgorithm; got {type(algorithm).__name__} "
                "(use the agent-level Simulator)"
            )
        if not feedback.iid_across_ants:
            raise ConfigurationError(
                "CountingSimulator requires feedback i.i.d. across ants "
                f"({type(feedback).__name__} is not)"
            )
        self.algorithm = algorithm
        self.schedule = _coerce_schedule(demand)
        self.feedback = feedback
        self.n = self.schedule.n
        # Optional dynamic colony size (conclusion: resilience to changes
        # in the number of ants).  Changes are applied at phase starts.
        self.population = population if population is not None else StaticPopulation(self.n)
        if self.population.population_at(0) > self.n:
            raise ConfigurationError(
                "population schedule exceeds the demand vector's colony size n "
                "(n is the capacity; schedule sizes must be <= n)"
            )
        self.k = self.schedule.k
        self._join_cache = JoinDistributionCache(
            enabled=self.pi_cache_enabled, shared=self.shared_pi_cache
        )
        if initial_loads is None:
            initial_loads = np.zeros(self.k, dtype=np.int64)
        self.initial_loads = np.asarray(initial_loads, dtype=np.int64).copy()
        if self.initial_loads.shape != (self.k,):
            raise ConfigurationError(f"initial_loads must have shape ({self.k},)")
        if np.any(self.initial_loads < 0) or int(self.initial_loads.sum()) > self.n:
            raise ConfigurationError("initial loads must be non-negative and sum to <= n")
        self._rng_factory = RngFactory(seed)

    def run(
        self,
        rounds: int,
        *,
        trace_stride: int = 0,
        tail_window: int = 0,
        burn_in: int = 0,
    ) -> SimulationResult:
        """Run ``rounds`` rounds as a one-lane batch; see :meth:`Simulator.run`
        for the options.  The batch adopts this simulator's join cache, so
        repeated runs stay warm and the ``pi_cache_*`` stats cover the
        latest run."""
        from repro.sim.batched import BatchedCountingSimulator

        (result,) = BatchedCountingSimulator([self]).run(
            rounds, trace_stride=trace_stride, tail_window=tail_window, burn_in=burn_in
        )
        return result
