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

This is the guides' "algorithmic optimization first": identical law to
the agent engine (property-tested in
``tests/sim/test_engine_equivalence.py``) at a per-round cost independent
of ``n``.  It makes the ``t ~ n^4``-scale claims of Theorem 3.1
empirically checkable on a laptop.
"""

from __future__ import annotations

import numpy as np

from scipy import stats

from repro.core.ant import AntAlgorithm
from repro.core.precise_sigmoid import PreciseSigmoidAlgorithm
from repro.core.trivial import TrivialAlgorithm
from repro.env.demands import DemandSchedule, DemandVector
from repro.env.feedback import FeedbackModel
from repro.env.population import PopulationSchedule, StaticPopulation, apply_population_change
from repro.exceptions import ConfigurationError, SimulationError
from repro.obs import complete_span, get_registry
from repro.obs import event as obs_event
from repro.obs import monotonic as obs_monotonic
from repro.obs import span as obs_span
from repro.sim.engine import SimulationResult, _coerce_schedule
from repro.sim.metrics import RegretTracker
from repro.sim.pi_cache import SharedPiCache
from repro.sim.trace import Trace
from repro.types import IDLE
from repro.util.mathx import exact_join_probabilities
from repro.util.rng import RngFactory
from repro.util.validation import check_integer

__all__ = [
    "CountingSimulator",
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

    One instance serves one engine run context: the serial
    :class:`CountingSimulator` owns one, and the batched engine
    (:class:`repro.sim.batched.BatchedCountingSimulator`) owns one shared
    by all of its lanes — which is exactly the cross-trial signature
    deduplication the batched engine exists for.  Lookup order is the
    local dict (FIFO-bounded by :data:`PI_CACHE_MAX_ENTRIES`), then the
    optional cross-trial :class:`~repro.sim.pi_cache.SharedPiCache`
    (memory then disk tier), then the kernel itself; fresh results are
    published back to both layers.  Keys are the byte image of the
    mark-probability vector ``u`` (shared-cache keys additionally pin
    the numerics tag, :data:`~repro.sim.pi_cache.PI_KEY_TAG`), so stale
    reuse is structurally impossible.  Per-tier hit/miss counters live
    here; engines expose them and :meth:`reset_stats` rewinds them at
    each run.
    """

    def __init__(self, *, enabled: bool, shared: SharedPiCache | None) -> None:
        self.enabled = bool(enabled)
        self.shared = shared if self.enabled else None
        self._local: dict[bytes, np.ndarray] = {}
        self.local_hits = 0
        self.shared_hits = 0
        self.disk_hits = 0
        self.misses = 0
        # Cumulative process-wide instruments (never reset): the per-run
        # ints above remain the engines' per-run stats view, the bound
        # registry counters are the observability view.  Bound once here
        # so the lookup hot path pays one attribute read + one add.
        registry = get_registry()
        self._obs_tiers = {
            tier: registry.counter("repro_pi_cache_lookups_total", tier=tier)
            for tier in ("local", "shared", "disk", "miss")
        }
        self._obs_kernel_seconds = registry.histogram(
            "repro_join_kernel_seconds", method="quadrature"
        )

    def reset_stats(self) -> None:
        """Rewind every per-tier counter (cache *contents* stay warm —
        they are content-addressed, so reuse across runs is correct)."""
        self.local_hits = 0
        self.shared_hits = 0
        self.disk_hits = 0
        self.misses = 0

    @property
    def hits(self) -> int:
        """Total hits (local + shared + disk) since the last reset."""
        return self.local_hits + self.shared_hits + self.disk_hits

    def stats(self) -> dict[str, int]:
        """The per-run tier counters as a plain dict (compat/trace view)."""
        return {
            "local_hits": self.local_hits,
            "shared_hits": self.shared_hits,
            "disk_hits": self.disk_hits,
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
        shared_key = None
        if self.shared is not None:
            shared_key = SharedPiCache.key(u)
            pi, tier = self.shared.fetch(shared_key)
            if pi is not None:
                if tier == "disk":
                    self.disk_hits += 1
                    self._obs_tiers["disk"].inc()
                else:
                    self.shared_hits += 1
                    self._obs_tiers["shared"].inc()
                self._store_local(key, pi)
                return pi
        self.misses += 1
        self._obs_tiers["miss"].inc()
        pi = self._run_kernel(u)
        if shared_key is not None:
            pi = self.shared.put(shared_key, pi)
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


class CountingSimulator:
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
    trials' kernel work is reused too (keyed by the numerics tag plus the
    signature — see that module for why stale reuse is structurally
    impossible).  Both knobs are pure performance choices: every
    combination draws from the identical action distribution, and cached
    runs are bit-identical to uncached ones.
    Cache effectiveness is reported by :attr:`pi_cache_local_hits`
    (this simulator's own cache), :attr:`pi_cache_shared_hits` (served
    by the shared cache's memory tier), :attr:`pi_cache_disk_hits`
    (served by its persistent :class:`~repro.store.pi_disk.DiskPiCache`
    tier — kernel work paid for in an earlier process or session) and
    :attr:`pi_cache_misses` (kernel actually ran); :attr:`pi_cache_hits`
    is their hit total (all reset at each :meth:`run`).
    ``pi_cache=False`` disables every layer.

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
        self._n_current = int(self.population.population_at(0))
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

    # ------------------------------------------------------------------
    # Cache statistics delegate to the JoinDistributionCache so that the
    # serial and batched engines report them identically.
    @property
    def pi_cache_local_hits(self) -> int:
        """Lookups served by this simulator's own cache since the last :meth:`run`."""
        return self._join_cache.local_hits

    @property
    def pi_cache_shared_hits(self) -> int:
        """Lookups served by the shared cache's memory tier since the last :meth:`run`."""
        return self._join_cache.shared_hits

    @property
    def pi_cache_disk_hits(self) -> int:
        """Lookups served by the shared cache's disk tier since the last :meth:`run`."""
        return self._join_cache.disk_hits

    @property
    def pi_cache_misses(self) -> int:
        """Lookups that actually ran the kernel since the last :meth:`run`."""
        return self._join_cache.misses

    @property
    def pi_cache_hits(self) -> int:
        """Total cache hits (local + shared + disk) since the last :meth:`run`."""
        return self._join_cache.hits

    @property
    def _pi_cache(self) -> dict[bytes, np.ndarray]:
        return self._join_cache._local

    # ------------------------------------------------------------------
    def run(
        self,
        rounds: int,
        *,
        tracker: RegretTracker | None = None,
        trace_stride: int = 0,
        tail_window: int = 0,
        burn_in: int = 0,
    ) -> SimulationResult:
        """Run ``rounds`` rounds; see :meth:`Simulator.run` for options."""
        rounds = check_integer("rounds", rounds, minimum=1)
        burn_in = check_integer("burn_in", burn_in, minimum=0)
        if burn_in >= rounds:
            raise ConfigurationError(
                f"burn_in={burn_in} must be < rounds={rounds}; no rounds would "
                "contribute to the cumulative metrics"
            )
        if tracker is None:
            gamma = getattr(self.algorithm, "gamma", 1.0 / 16.0)
            tracker = RegretTracker(gamma=float(gamma), burn_in=burn_in)
        trace = Trace(stride=trace_stride or max(rounds, 1), tail_window=tail_window)
        record_trace = trace_stride > 0 or tail_window > 0
        rng = self._rng_factory.stream("counting")
        self.feedback.reset()
        # Rewind colony-size state so repeated run() calls start identically.
        self._n_current = int(self.population.population_at(0))
        # Rewind every cache counter (local, shared, disk, miss) so the
        # stats of back-to-back run() calls cover exactly one run each;
        # the cache *contents* stay warm (content-addressed, so reuse
        # across runs is correct and bit-identical).
        self._join_cache.reset_stats()

        if isinstance(self.algorithm, AntAlgorithm):
            loads_iter = self._run_ant(rounds, rng)
        elif isinstance(self.algorithm, PreciseSigmoidAlgorithm):
            loads_iter = self._run_precise_sigmoid(rounds, rng)
        else:
            loads_iter = self._run_trivial(rounds, rng)

        loads = self.initial_loads
        with obs_span(
            "counting_run",
            engine="counting",
            algorithm=type(self.algorithm).__name__,
            k=self.k,
            rounds=rounds,
        ):
            for t, loads, switches in loads_iter:
                d_now = self.schedule.demands_at(t).demands
                r = tracker.observe(t, d_now, loads, switches)
                if record_trace:
                    trace.record(t, loads, r)
        obs_event("pi_cache_stats", engine="counting", **self._join_cache.stats())

        return SimulationResult(
            metrics=tracker.finalize(),
            trace=trace,
            final_assignment=self._loads_to_assignment(loads),
            rounds=rounds,
            n=self.n,
            k=self.k,
            n_current=self._n_current,
        )

    # ------------------------------------------------------------------
    def _run_ant(self, rounds: int, rng: np.random.Generator):
        """Yield ``(t, loads, switches)`` for Algorithm Ant phases."""
        alg: AntAlgorithm = self.algorithm  # type: ignore[assignment]
        W = self.initial_loads.astype(np.int64).copy()
        # Phase-start loads and sample-1 probabilities persist across the
        # two rounds of a phase.
        W_phase = W.copy()
        p1 = np.zeros(self.k, dtype=np.float64)
        for t in range(1, rounds + 1):
            d_prev = self.schedule.demands_at(t - 1).demands
            if t % 2 == 1:
                W, _ = self._apply_population(t, W, rng)
                # Round 1: sample-1 marginals, temporary pauses.
                W_phase = W.copy()
                p1 = self.feedback.lack_probabilities(d_prev - W)
                paused = rng.binomial(W_phase, alg.pause_probability)
                W = W_phase - paused
                self._check(W)
                yield t, W.copy(), int(paused.sum())
            else:
                # Round 2: sample-2 marginals (of thinned load), decisions.
                p2 = self.feedback.lack_probabilities(d_prev - W)
                # Permanent leaves among the W_phase phase-start workers.
                q_leave = (1.0 - p1) * (1.0 - p2) * alg.leave_probability
                leavers = rng.binomial(W_phase, q_leave)
                # Joins by idle-at-phase-start ants.
                idle = self._n_current - int(W_phase.sum())
                joins = self._sample_joins(idle, p1 * p2, rng)
                prev_paused = W_phase - W  # ants that resume this round
                W = W_phase - leavers + joins
                self._check(W)
                # Switches: resumed pauses counted when they paused; here
                # count leavers + joiners + resumers returning to work.
                yield t, W.copy(), int(leavers.sum() + joins.sum() + prev_paused.sum())

    def _run_precise_sigmoid(self, rounds: int, rng: np.random.Generator):
        """Yield ``(t, loads, switches)`` for Algorithm Precise Sigmoid.

        Within a phase, the loads are piecewise constant: ``W_phase``
        during the sample-1 window (assignments held), ``W_mid`` after
        the round-``m`` pause, and ``W_next`` after the end-of-phase
        decision.  Each ant's two *medians* are therefore i.i.d.
        Bernoulli with the binomially amplified probabilities
        ``P_med = P[Binom(m, s(lambda*Delta)) > m/2]``, which makes the
        phase-level colony transition identical in law to one Algorithm
        Ant phase at step size ``gamma'`` — exactly the reduction the
        Theorem 3.2 proof performs.
        """
        alg: PreciseSigmoidAlgorithm = self.algorithm  # type: ignore[assignment]
        m = alg.m
        W = self.initial_loads.astype(np.int64).copy()
        W_phase = W.copy()
        P1 = np.zeros(self.k, dtype=np.float64)
        majority = m // 2  # median LACK iff lack-count > m/2, i.e. >= majority+1
        for t in range(1, rounds + 1):
            r = t % (2 * m)
            d_prev = self.schedule.demands_at(t - 1).demands
            if r == 1:
                W, _ = self._apply_population(t, W, rng)
                # Sample-1 window opens: loads frozen at W_phase.
                W_phase = W.copy()
                p1 = self.feedback.lack_probabilities(d_prev - W_phase)
                P1 = stats.binom.sf(majority, m, p1)
            if r == m:
                # End of window 1: temporary pauses thin the load.
                paused = rng.binomial(W_phase, alg.pause_probability)
                W = W_phase - paused
                self._check(W)
                yield t, W.copy(), int(paused.sum())
            elif r == 0:
                # End of phase: medians of window 2, Ant-style decisions.
                p2 = self.feedback.lack_probabilities(d_prev - W)
                P2 = stats.binom.sf(majority, m, p2)
                q_leave = (1.0 - P1) * (1.0 - P2) * alg.leave_probability
                leavers = rng.binomial(W_phase, q_leave)
                idle = self._n_current - int(W_phase.sum())
                joins = self._sample_joins(idle, P1 * P2, rng)
                resumed = W_phase - W
                W = W_phase - leavers + joins
                self._check(W)
                yield t, W.copy(), int(leavers.sum() + joins.sum() + resumed.sum())
            else:
                # Hold rounds: loads unchanged.
                yield t, W.copy(), 0

    def _run_trivial(self, rounds: int, rng: np.random.Generator):
        """Yield ``(t, loads, switches)`` for the trivial algorithm."""
        alg: TrivialAlgorithm = self.algorithm  # type: ignore[assignment]
        W = self.initial_loads.astype(np.int64).copy()
        for t in range(1, rounds + 1):
            W, _ = self._apply_population(t, W, rng)
            d_prev = self.schedule.demands_at(t - 1).demands
            p = self.feedback.lack_probabilities(d_prev - W)
            leavers = rng.binomial(W, (1.0 - p) * alg.leave_probability)
            idle = self._n_current - int(W.sum())
            # Rate-limited variant: only a q-thinned subset of idle ants
            # attempts to join this round.
            attempters = (
                idle
                if alg.join_probability >= 1.0
                else int(rng.binomial(idle, alg.join_probability))
            )
            joins = self._sample_joins(attempters, p, rng)
            W = W - leavers + joins
            self._check(W)
            yield t, W.copy(), int(leavers.sum() + joins.sum())

    # ------------------------------------------------------------------
    def _sample_joins(
        self, idle: int, underload_probs: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Joint join counts for ``idle`` exchangeable idle ants.

        Each ant marks task ``j`` w.p. ``underload_probs[j]`` independently
        and joins a uniform marked task (idle if none).  The default draws
        one multinomial over the exact action distribution (the quadrature
        kernel, cached by signature) for any ``k``;
        ``join_strategy="per_ant"`` samples every ant (identical law, kept
        as a cross-check).
        """
        if idle <= 0:
            return np.zeros(self.k, dtype=np.int64)
        u = np.clip(underload_probs, 0.0, 1.0)
        if self.join_strategy == "per_ant":
            return self._sample_joins_per_ant(idle, u, rng)
        pi = self._join_distribution(u)
        counts = rng.multinomial(idle, pi)
        return counts[: self.k].astype(np.int64)

    def _join_distribution(self, u: np.ndarray) -> np.ndarray:
        """The exact action distribution for mark probabilities ``u``.

        Content-addressed caching: the key is the byte image of ``u``, so
        a round whose deficits (and hence feedback signature) did not
        change reuses the previously computed distribution, while any
        demand, load, or population change produces a new key — stale
        reuse is structurally impossible.  All tier logic lives in
        :class:`JoinDistributionCache` (shared with the batched engine).
        """
        return self._join_cache.distribution(u)

    def _sample_joins_per_ant(
        self, idle: int, u: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Exact O(idle * k) per-ant simulation of the join step."""
        marks = rng.random((idle, self.k)) < u[np.newaxis, :]
        counts = np.zeros(self.k, dtype=np.int64)
        row_counts = marks.sum(axis=1)
        rows = np.nonzero(row_counts > 0)[0]
        if rows.size:
            r = rng.integers(0, row_counts[rows])
            csum = np.cumsum(marks[rows], axis=1)
            chosen = np.argmax(csum > r[:, np.newaxis], axis=1)
            counts += np.bincount(chosen, minlength=self.k).astype(np.int64)
        return counts

    def _apply_population(
        self, t: int, W: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, int]:
        """Resize the colony to the scheduled size at round ``t``.

        Deaths strike uniformly at random (hypergeometric across tasks
        and the idle pool); arrivals join the idle pool.  Returns the
        adjusted loads and the new idle count.
        """
        n_new = int(self.population.population_at(t))
        idle = self._n_current - int(W.sum())
        if n_new != self._n_current:
            W, idle = apply_population_change(W, idle, n_new, rng)
            self._n_current = n_new
        return W, idle

    def _check(self, W: np.ndarray) -> None:
        if np.any(W < 0) or int(W.sum()) > self._n_current:
            raise SimulationError(
                f"load vector out of range: {W} (living ants={self._n_current})"
            )

    def _loads_to_assignment(self, loads: np.ndarray) -> np.ndarray:
        """Materialize *an* assignment consistent with the final loads.

        Sized by the *living* colony (``n_current``), not the capacity
        ``n``: after a population shrink, dead ants must not show up as
        extra IDLE workers.
        """
        out = np.full(self._n_current, IDLE, dtype=np.int64)
        pos = 0
        for j, w in enumerate(loads):
            out[pos : pos + int(w)] = j
            pos += int(w)
        return out
