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
  joint join counts drawn as one ``Multinomial(idle, pi)``.  The
  action distribution is a pure function of the mark-probability
  vector, so one content-addressed store per process
  (:class:`JoinDistributionCache`) lets every round, trial and sweep
  point whose signature repeats skip the kernel entirely.  This keeps
  the engine genuinely polynomial in ``k`` — many-task scenarios
  (k = 64..16384) run exactly; the old ``O(2^k k)`` subset enumerator
  survives only as a test oracle.

This module holds one trial's configuration (:class:`CountingSimulator`)
and the join-distribution cache.  The round programs live in
:mod:`repro.sim.batched`: a single run is a one-lane batch, and
:func:`repro.sim.runner.run_trials` advances multi-trial runs as
batches of lanes.

This is the guides' "algorithmic optimization first": the same law as
the agent engine lumped by load vector (checked exactly, from every load
vector of small colonies, by ``tests/sim/test_lumpability.py``) at a
per-round cost independent of ``n``.  It makes the ``t ~ n^4``-scale
claims of Theorem 3.1 empirically checkable on a laptop.
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
from repro.util.bounded_store import BoundedStore
from repro.util.mathx import exact_join_probabilities
from repro.util.rng import RngFactory

__all__ = [
    "CountingSimulator",
    "JoinCacheStats",
    "JoinDistributionCache",
    "PI_CACHE_MAX_BYTES",
    "PI_CACHE_MAX_ENTRIES",
    "clear_join_cache",
]

#: Entry cap of the process's join-distribution store.  Eviction is
#: FIFO; each entry is one ``(k,)`` key and one ``(k + 1,)`` float64
#: array.
PI_CACHE_MAX_ENTRIES = 4096
#: Byte budget of the store's keys and values together: about 2000
#: entries at k = 8192, so the entry cap binds first up to k ~ 4000.
PI_CACHE_MAX_BYTES = 256 << 20

#: The process's join distributions, keyed by the byte image of ``u``;
#: each value is the kernel's read-only output for its key.
_STORE: BoundedStore[np.ndarray] = BoundedStore(
    max_entries=PI_CACHE_MAX_ENTRIES, max_bytes=PI_CACHE_MAX_BYTES, sizeof=lambda pi: pi.nbytes
)


def clear_join_cache() -> None:
    """Empty the process's join-distribution store.

    Never needed for correctness (entries are content-addressed); tests
    and benchmarks call it to start from a cold store.
    """
    _STORE.clear()


class JoinDistributionCache:
    """One engine's view of the process's join-distribution store.

    Every :class:`CountingSimulator` owns one, and a batched run
    (:class:`repro.sim.batched.BatchedCountingSimulator`) adopts its
    first lane's for all of its lanes.  :meth:`distribution` reads the
    process store, runs the kernel on a miss and publishes the result,
    so a signature costs one kernel call per process, whichever run,
    trial, sweep point or thread meets it first.  Keys are the byte
    image of the mark-probability vector ``u``, so stale reuse is
    structurally impossible, and a hit returns the very bits the kernel
    would.  ``enabled=False`` (spec ``pi_cache: false``) bypasses the
    store: the uncached reference.  :attr:`hits` and :attr:`misses`
    count this engine's lookups since :meth:`reset_stats`, which every
    run calls.
    """

    def __init__(self, *, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.hits = 0
        self.misses = 0
        # Cumulative process-wide instruments (never reset): the per-run
        # ints above are the engines' stats view, the bound registry
        # counters the observability view.
        registry = get_registry()
        self._obs_hits = registry.counter("repro_pi_cache_lookups_total", tier="local")
        self._obs_misses = registry.counter("repro_pi_cache_lookups_total", tier="miss")
        self._obs_kernel_seconds = registry.histogram(
            "repro_join_kernel_seconds", method="quadrature"
        )

    def reset_stats(self) -> None:
        """Rewind the per-run counters (the store stays warm)."""
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        """The per-run counters as a plain dict (the trace view)."""
        return {"hits": self.hits, "misses": self.misses}

    def distribution(self, u: np.ndarray) -> np.ndarray:
        """The exact action distribution for mark probabilities ``u``."""
        if not self.enabled:
            return self._run_kernel(u)
        key = u.tobytes()
        pi = _STORE.entries.get(key)
        if pi is not None:
            self.hits += 1
            self._obs_hits.inc()
            return pi
        self.misses += 1
        self._obs_misses.inc()
        pi = self._run_kernel(u)
        pi.setflags(write=False)
        return _STORE.put(key, pi)

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


class JoinCacheStats:
    """Per-run ``pi_cache_*`` views of an engine's :class:`JoinDistributionCache`.

    :attr:`pi_cache_hits` counts lookups served by the process store and
    :attr:`pi_cache_misses` the lookups that ran the kernel.  Both reset
    at each run; an uncached engine (``pi_cache=False``) counts neither.
    """

    _join_cache: JoinDistributionCache

    @property
    def pi_cache_hits(self) -> int:
        return self._join_cache.hits

    @property
    def pi_cache_misses(self) -> int:
        return self._join_cache.misses


class CountingSimulator(JoinCacheStats):
    """O(k)-per-round simulator for Algorithm Ant / trivial algorithm.

    Parameters mirror :class:`~repro.sim.engine.Simulator`; the initial
    state is given as per-task loads (plus implied idle ants) rather than
    per-ant assignments.  The idle pool's joint join counts are one
    ``Multinomial(idle, pi)`` over the join kernel's action distribution.

    ``pi_cache`` reads the join kernel through the process's
    content-addressed store (see :class:`JoinDistributionCache`), so
    rounds, trials and sweep points whose mark probabilities repeat
    (unchanged deficits, or saturated feedback) skip the kernel
    (:func:`repro.util.mathx.exact_join_probabilities`) entirely.  It is
    a pure performance choice: cached runs are bit-identical to uncached
    ones, and ``pi_cache=False`` is the uncached reference.  Cache
    effectiveness is reported by the ``pi_cache_*`` properties (see
    :class:`JoinCacheStats`).

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
        pi_cache: bool = True,
    ) -> None:
        self.pi_cache_enabled = bool(pi_cache)
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
        self._join_cache = JoinDistributionCache(enabled=self.pi_cache_enabled)
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
        the ``pi_cache_*`` stats cover the latest run."""
        from repro.sim.batched import BatchedCountingSimulator

        (result,) = BatchedCountingSimulator([self]).run(
            rounds, trace_stride=trace_stride, tail_window=tail_window, burn_in=burn_in
        )
        return result
