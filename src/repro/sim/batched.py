"""Batched counting engine: B independent trials per vectorized step.

:class:`BatchedCountingSimulator` advances a *batch* of
:class:`~repro.sim.counting.CountingSimulator` lanes — independent
trials of one configuration, differing only in their seeds — through
the same round loop as the serial engine, but with the per-round math
expressed as stacked ``(B, k)`` array programs: one demand lookup, one
feedback evaluation, one regret/metrics update per round for the whole
batch instead of one per trial.  At small and medium ``k`` the serial
engine is dominated by exactly this Python-level per-(trial, round)
overhead (BENCH_counting.json: ~5500 rounds/s at k = 4 *and* k = 256,
while a single kernel call costs microseconds), so batching trials is
the lever the ROADMAP's "100 points x 10 trials in the time of one
point" target needs.

**Bit-identity, not just law-equivalence.**  Every lane draws from its
own :class:`numpy.random.Generator`, derived exactly as the serial
engine derives it (``RngFactory(seed).stream("counting")`` — the
``SeedSequence`` entropy/spawn-key scheme of :mod:`repro.util.rng`), and
the batched loop issues the identical sequence of
``binomial``/``multinomial``/``multivariate_hypergeometric`` calls with
elementwise-identical arguments.  Trial i of a batched run is therefore
**bit-identical** to trial i of the serial engine — same loads every
round, same traces, same metrics — which is a strictly stronger claim
than distributional bisimulation and is pinned per-algorithm by
``tests/sim/test_batched.py``.  The vectorization win comes from the
shared per-round math plus **cross-lane signature deduplication**: the
batch owns one :class:`~repro.sim.counting.JoinDistributionCache`, so a
mark-probability signature appearing in several lanes the same round
(or any round) pays for at most one kernel call, with the usual
shared/disk tiers behind it.  Deduplicated kernel calls stay scalar per
*distinct* signature on purpose: stacking signatures with different
active sets would change the quadrature's summation order and break
bit-identity with the serial kernel.

Array operations route through the :mod:`repro.util.array_api` shim
(``xp = get_namespace(backend)``): ``backend="numpy"`` (default, and
the only backend the bit-identity claim covers) makes ``xp`` numpy
itself at zero overhead, while a registered CuPy/Torch backend is a
config switch.  Random draws always stay on numpy generators (see the
shim's module docstring).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from scipy import stats

from repro.core.ant import AntAlgorithm
from repro.core.precise_sigmoid import PreciseSigmoidAlgorithm
from repro.env.feedback import SigmoidFeedback
from repro.env.population import apply_population_change
from repro.exceptions import AnalysisError, ConfigurationError, SimulationError
from repro.obs import event as obs_event
from repro.obs import span as obs_span
from repro.sim.counting import CountingSimulator, JoinDistributionCache
from repro.sim.engine import SimulationResult
from repro.sim.metrics import RunMetrics
from repro.sim.trace import Trace
from repro.types import IDLE
from repro.util.array_api import get_namespace
from repro.util.rng_block import BinomialBlockSampler
from repro.util.validation import check_integer

__all__ = ["BatchedCountingSimulator", "BatchedRegretTracker", "DEFAULT_BATCH"]

#: Default lane count for ``batch=True``-style opt-ins (engine specs,
#: CLI).  Chosen to match the benchmark/acceptance operating point; any
#: B >= 1 is valid and bit-identical.
DEFAULT_BATCH = 16


def _as_numpy(x):
    """Materialize ``x`` as a numpy array at the RNG-draw boundary.

    Draws always run on numpy generators (bit-identity), so non-numpy
    backends pay one host transfer here: CuPy via ``.get()``, anything
    else through ``np.asarray`` (Torch CPU tensors support the buffer
    protocol).  Numpy arrays pass through untouched.
    """
    if isinstance(x, np.ndarray):
        return x
    get = getattr(x, "get", None)
    if callable(get) and hasattr(x, "ndim"):
        return np.asarray(get())
    return np.asarray(x)


class BatchedRegretTracker:
    """Vectorized :class:`~repro.sim.metrics.RegretTracker` over B lanes.

    Replicates the serial tracker's arithmetic exactly — same expression
    shapes, same accumulation order per lane — on stacked ``(B, k)``
    arrays, so :meth:`finalize` emits per-lane
    :class:`~repro.sim.metrics.RunMetrics` bit-identical (on the numpy
    backend) to B serial trackers fed the same rounds.
    """

    def __init__(
        self,
        batch: int,
        *,
        gamma: float = 0.0625,
        c_plus: float = 3.0,
        c_minus: float = 4.0,
        band_coefficient: float = 5.0,
        burn_in: int = 0,
        xp=np,
    ) -> None:
        self.batch = int(batch)
        self.gamma = float(gamma)
        self.c_plus = float(c_plus)
        self.c_minus = float(c_minus)
        self.band_coefficient = float(band_coefficient)
        self.burn_in = int(burn_in)
        self._xp = xp
        self._rounds = 0
        self._cum = xp.zeros(self.batch, dtype=np.float64)
        self._cum_plus = xp.zeros(self.batch, dtype=np.float64)
        self._cum_near = xp.zeros(self.batch, dtype=np.float64)
        self._cum_minus = xp.zeros(self.batch, dtype=np.float64)
        self._switches = xp.zeros(self.batch, dtype=np.int64)
        self._max_abs_deficit = xp.zeros(self.batch, dtype=np.float64)
        self._outside_band = xp.zeros(self.batch, dtype=np.int64)
        self._last_loads = None
        self._last_deficits = None
        self._demands_src = None
        self._demands_f64 = None
        self._over_threshold = None
        self._lack_threshold = None
        self._band = None

    def observe(self, t: int, demands, loads, switches):
        """Record round ``t`` for all lanes; returns per-lane ``r(t)``.

        ``demands`` is the shared ``(k,)`` vector, ``loads`` the stacked
        ``(B, k)`` integer loads, ``switches`` the per-lane ``(B,)``
        switch counts.
        """
        xp = self._xp
        # The demand vector is usually the same object round after round
        # (static and piecewise-constant schedules); cache its float64
        # image and the derived overload/lack thresholds and band.
        if demands is not self._demands_src:
            self._demands_src = demands
            d = xp.asarray(demands, dtype=np.float64)
            self._demands_f64 = d
            self._over_threshold = (1.0 + self.c_plus * self.gamma) * d
            self._lack_threshold = (1.0 - self.c_minus * self.gamma) * d
            self._band = self.band_coefficient * self.gamma * d + 3.0
        demands = self._demands_f64
        loads = xp.asarray(loads, dtype=np.float64)
        deficits = demands - loads
        abs_deficits = xp.abs(deficits)
        r = abs_deficits.sum(axis=-1)
        self._rounds = t
        # ``loads`` and ``deficits`` are freshly allocated above — safe to
        # hold without the serial tracker's defensive copies.
        self._last_loads = loads
        self._last_deficits = deficits
        if t > self.burn_in:
            self._cum += r
            # split_regret, vectorized with the serial expression shapes.
            over = xp.maximum(loads - self._over_threshold, 0.0).sum(axis=-1)
            lackv = xp.maximum(self._lack_threshold - loads, 0.0).sum(axis=-1)
            self._cum_plus += over
            self._cum_near += r - over - lackv
            self._cum_minus += lackv
            self._switches += switches
            self._max_abs_deficit = xp.maximum(
                self._max_abs_deficit, abs_deficits.max(axis=-1)
            )
            self._outside_band += (abs_deficits > self._band).any(axis=-1)
        return r

    def finalize(self) -> list[RunMetrics]:
        """Per-lane :class:`RunMetrics`, in lane order."""
        if self._rounds == 0 or self._last_loads is None:
            raise AnalysisError("no rounds observed")
        effective = self._rounds - self.burn_in
        if effective <= 0:
            raise AnalysisError(
                f"burn_in={self.burn_in} excludes all {self._rounds} observed "
                "rounds; cumulative metrics would be vacuously zero"
            )
        last_loads = _as_numpy(self._last_loads)
        last_deficits = _as_numpy(self._last_deficits)
        return [
            RunMetrics(
                rounds=effective,
                cumulative_regret=float(self._cum[b]),
                regret_plus=float(self._cum_plus[b]),
                regret_near=float(self._cum_near[b]),
                regret_minus=float(self._cum_minus[b]),
                total_switches=int(self._switches[b]),
                max_abs_deficit=float(self._max_abs_deficit[b]),
                final_loads=last_loads[b].copy(),
                final_deficits=last_deficits[b].copy(),
                rounds_outside_band=int(self._outside_band[b]),
                band_coefficient=self.band_coefficient,
            )
            for b in range(self.batch)
        ]


def _lane_signature(sim: CountingSimulator) -> tuple:
    """The configuration facets the batched loop relies on being equal."""
    alg = sim.algorithm
    return (
        type(alg).__name__,
        getattr(alg, "gamma", None),
        getattr(alg, "m", None),
        getattr(alg, "pause_probability", None),
        getattr(alg, "leave_probability", None),
        getattr(alg, "join_probability", None),
        sim.n,
        sim.k,
        sim.join_strategy,
        sim.pi_cache_enabled,
        type(sim.feedback).__name__,
        type(sim.schedule).__name__,
        type(sim.population).__name__,
        sim.initial_loads.tobytes(),
    )


class BatchedCountingSimulator:
    """Advance B :class:`CountingSimulator` lanes as one array program.

    Parameters
    ----------
    simulators:
        The lanes: independent trials of *one* configuration (same
        algorithm/demand/feedback/population/engine options), differing
        only in their seeds — exactly what a ``factory(seed)`` loop
        produces.  Configuration facets the batched loop depends on are
        validated; build lanes from a single factory.
    backend:
        Array-namespace name for the stacked math (see
        :mod:`repro.util.array_api`).  ``"numpy"`` is the default and
        the only backend covered by the bit-identity guarantee; any
        numpy-API-compatible namespace (e.g. CuPy) is a config switch.

    :meth:`run` returns one :class:`~repro.sim.engine.SimulationResult`
    per lane, in order, each bit-identical to what ``lane.run(...)``
    would have returned on a fresh lane.  Draws consume the lanes' own
    ``"counting"`` RNG streams, so a lane should not be reused serially
    after running it batched (build fresh simulators instead — they are
    cheap relative to any run).
    """

    def __init__(
        self,
        simulators: Sequence[CountingSimulator],
        *,
        backend: str = "numpy",
    ) -> None:
        lanes = list(simulators)
        if not lanes:
            raise ConfigurationError("BatchedCountingSimulator needs at least one lane")
        for sim in lanes:
            if not isinstance(sim, CountingSimulator):
                raise ConfigurationError(
                    "every batched lane must be a CountingSimulator, got "
                    f"{type(sim).__name__} — batch applies to the counting engine "
                    "(engine spec 'counting' / 'counting_batched') only"
                )
        signature = _lane_signature(lanes[0])
        for sim in lanes[1:]:
            if _lane_signature(sim) != signature:
                raise ConfigurationError(
                    "batched lanes must share one configuration (same algorithm, "
                    "demand, feedback, population and engine options, differing "
                    "only in seed); build them from a single factory"
                )
        self.lanes = lanes
        self.batch = len(lanes)
        self._xp = get_namespace(backend)
        self.backend = backend
        lane0 = lanes[0]
        self.algorithm = lane0.algorithm
        self.schedule = lane0.schedule
        self.feedback = lane0.feedback
        self.population = lane0.population
        self.n = lane0.n
        self.k = lane0.k
        self.join_strategy = lane0.join_strategy
        self._n_current = int(self.population.population_at(0))
        # One cache for the whole batch: cross-lane signature dedup is
        # the batched engine's kernel-side win.  Same tiers and key
        # scheme as the serial engine (see JoinDistributionCache).
        self._join_cache = JoinDistributionCache(
            enabled=lane0.pi_cache_enabled, shared=lane0.shared_pi_cache
        )
        # Exact vectorized replay of numpy's binomial inversion sampler;
        # removes the ~10-15 us *fixed* overhead of each per-lane
        # Generator.binomial broadcast call (see repro.util.rng_block).
        self._binom_block = BinomialBlockSampler()
        # Scalar-lam sigmoid feedback is a pure value map, and stacked
        # integer-load deficits take a few dozen distinct values; its
        # lack probabilities can be evaluated once per distinct value
        # and scattered back (numpy backend only — on other backends the
        # deficits are device arrays).
        self._dedup_feedback = (
            self._xp is np
            and isinstance(self.feedback, SigmoidFeedback)
            and isinstance(self.feedback.lam, float)
        )

    # ------------------------------------------------------------------
    @property
    def pi_cache_local_hits(self) -> int:
        return self._join_cache.local_hits

    @property
    def pi_cache_shared_hits(self) -> int:
        return self._join_cache.shared_hits

    @property
    def pi_cache_disk_hits(self) -> int:
        return self._join_cache.disk_hits

    @property
    def pi_cache_misses(self) -> int:
        return self._join_cache.misses

    @property
    def pi_cache_hits(self) -> int:
        return self._join_cache.hits

    # ------------------------------------------------------------------
    def run(
        self,
        rounds: int,
        *,
        trace_stride: int = 0,
        tail_window: int = 0,
        burn_in: int = 0,
    ) -> list[SimulationResult]:
        """Run all lanes for ``rounds`` rounds; one result per lane.

        Accepts the serial engine's run options except ``tracker`` (per
        lane custom trackers cannot be vectorized; run serially for
        that).  Cache statistics reset at each call, exactly like the
        serial engine's.
        """
        rounds = check_integer("rounds", rounds, minimum=1)
        burn_in = check_integer("burn_in", burn_in, minimum=0)
        if burn_in >= rounds:
            raise ConfigurationError(
                f"burn_in={burn_in} must be < rounds={rounds}; no rounds would "
                "contribute to the cumulative metrics"
            )
        gamma = getattr(self.algorithm, "gamma", 1.0 / 16.0)
        tracker = BatchedRegretTracker(
            self.batch, gamma=float(gamma), burn_in=burn_in, xp=self._xp
        )
        traces = [
            Trace(stride=trace_stride or max(rounds, 1), tail_window=tail_window)
            for _ in self.lanes
        ]
        record_trace = trace_stride > 0 or tail_window > 0
        rngs = [lane._rng_factory.stream("counting") for lane in self.lanes]
        self.feedback.reset()
        self._n_current = int(self.population.population_at(0))
        self._join_cache.reset_stats()

        if isinstance(self.algorithm, AntAlgorithm):
            loads_iter = self._run_ant(rounds, rngs)
        elif isinstance(self.algorithm, PreciseSigmoidAlgorithm):
            loads_iter = self._run_precise_sigmoid(rounds, rngs)
        else:
            loads_iter = self._run_trivial(rounds, rngs)

        W = self._stack_initial_loads()
        with obs_span(
            "batched_run",
            engine="batched",
            algorithm=type(self.algorithm).__name__,
            k=self.k,
            rounds=rounds,
            batch=self.batch,
        ):
            for t, W, switches in loads_iter:
                d_now = self.schedule.demands_at(t).demands
                r = tracker.observe(t, d_now, W, switches)
                if record_trace:
                    for b, trace in enumerate(traces):
                        trace.record(t, W[b], float(r[b]))
        obs_event("pi_cache_stats", engine="batched", **self._join_cache.stats())

        metrics = tracker.finalize()
        return [
            SimulationResult(
                metrics=metrics[b],
                trace=traces[b],
                final_assignment=self._loads_to_assignment(np.asarray(W[b])),
                rounds=rounds,
                n=self.n,
                k=self.k,
                n_current=self._n_current,
            )
            for b in range(self.batch)
        ]

    # ------------------------------------------------------------------
    def _stack_initial_loads(self) -> np.ndarray:
        return np.stack(
            [lane.initial_loads.astype(np.int64).copy() for lane in self.lanes]
        )

    def _lack_probabilities(self, deficits):
        """Feedback probabilities for the stacked deficit matrix.

        For scalar-lam sigmoid feedback the map is elementwise in the
        deficit *value*, so evaluate the few dozen distinct values once
        and gather — the gather preserves bit patterns, so this matches
        the full-matrix evaluation exactly.
        """
        if self._dedup_feedback:
            deficits = np.asarray(deficits)
            values, inverse = np.unique(deficits, return_inverse=True)
            probs = np.asarray(self.feedback.lack_probabilities(values))
            return probs[inverse].reshape(deficits.shape)
        return self.feedback.lack_probabilities(self._xp.asarray(deficits))

    def _binomial_lanes(
        self, rngs: list[np.random.Generator], counts: np.ndarray, p
    ) -> np.ndarray:
        """Per-lane ``rng.binomial(counts[b], p[b])`` — one generator per
        lane so each lane's stream consumption matches the serial engine
        call for call (``p`` may be scalar, broadcast to all lanes)."""
        if hasattr(p, "ndim"):
            p = _as_numpy(p)
            if p.ndim == 0:
                p = float(p)
        drawn = self._binom_block.draw(rngs, counts, p)
        if drawn is not None:
            return drawn
        # Outside the replay's profitable regime (large n*p, many
        # distinct p, or BTPE territory): per-lane numpy calls — slower,
        # bit-identical by construction.
        out = np.empty_like(counts)
        if isinstance(p, np.ndarray) and p.ndim > 1:
            for b, rng in enumerate(rngs):
                out[b] = rng.binomial(counts[b], p[b])
        else:
            for b, rng in enumerate(rngs):
                out[b] = rng.binomial(counts[b], p)
        return out

    def _sample_joins_batched(
        self,
        idle: np.ndarray,
        underload_probs: np.ndarray,
        rngs: list[np.random.Generator],
    ) -> np.ndarray:
        """Joint join counts for every lane's idle pool.

        Mirrors the serial ``_sample_joins`` per lane (including its
        no-draw early exit for an empty pool), but resolves each
        *distinct* mark signature through the batch-level cache exactly
        once per round — lanes whose deficits coincide (common in steady
        state) share one kernel call.
        """
        k = self.k
        joins = np.zeros((self.batch, k), dtype=np.int64)
        u = np.clip(_as_numpy(underload_probs), 0.0, 1.0)
        idle_counts = idle.tolist() if isinstance(idle, np.ndarray) else list(idle)
        if self.join_strategy == "per_ant":
            for b, rng in enumerate(rngs):
                n_idle = int(idle_counts[b])
                if n_idle > 0:
                    joins[b] = self.lanes[b]._sample_joins_per_ant(n_idle, u[b], rng)
            return joins
        distribution = self._join_cache.distribution
        if not self._join_cache.enabled:
            # Caching off: still dedup signatures within this call so the
            # batch pays at most one kernel call per distinct signature.
            round_pis: dict[bytes, np.ndarray] = {}

            def distribution(u_row: np.ndarray) -> np.ndarray:  # noqa: F811
                key = u_row.tobytes()
                pi = round_pis.get(key)
                if pi is None:
                    pi = self._join_cache.distribution(u_row)
                    round_pis[key] = pi
                return pi

        for b, rng in enumerate(rngs):
            n_idle = int(idle_counts[b])
            if n_idle <= 0:
                continue
            joins[b] = rng.multinomial(n_idle, distribution(u[b]))[:k]
        return joins

    def _apply_population_batched(
        self, t: int, W: np.ndarray, rngs: list[np.random.Generator]
    ) -> np.ndarray:
        """Resize every lane to the scheduled size at round ``t``.

        The schedule is deterministic and shared, so all lanes resize at
        the same rounds; the hypergeometric death draws stay per-lane on
        the lane's own stream (serial call parity).  Copy-on-change: the
        incoming stack (possibly still referenced by the trackers) is
        never mutated."""
        n_new = int(self.population.population_at(t))
        if n_new != self._n_current:
            W = W.copy()
            for b, rng in enumerate(rngs):
                idle = self._n_current - int(W[b].sum())
                W[b], _ = apply_population_change(W[b], idle, n_new, rng)
            self._n_current = n_new
        return W

    def _check(self, W: np.ndarray) -> None:
        if W.min() < 0 or W.sum(axis=-1).max() > self._n_current:
            raise SimulationError(
                f"load vector out of range: {W} (living ants={self._n_current})"
            )

    def _loads_to_assignment(self, loads: np.ndarray) -> np.ndarray:
        """Same layout as ``CountingSimulator._loads_to_assignment``."""
        out = np.full(self._n_current, IDLE, dtype=np.int64)
        pos = 0
        for j, w in enumerate(loads):
            out[pos : pos + int(w)] = j
            pos += int(w)
        return out

    # ------------------------------------------------------------------
    def _run_ant(self, rounds: int, rngs: list[np.random.Generator]):
        """Yield ``(t, loads, switches)`` stacks for Algorithm Ant phases.

        Every intermediate is freshly allocated (population resizes are
        copy-on-change), so yielded stacks are never mutated later and
        need no defensive copies.
        """
        xp = self._xp
        alg: AntAlgorithm = self.algorithm  # type: ignore[assignment]
        lack_probabilities = self._lack_probabilities
        demands_at = self.schedule.demands_at
        pause_p = alg.pause_probability
        leave_p = alg.leave_probability
        W = self._stack_initial_loads()
        W_phase = W
        p1 = xp.zeros((self.batch, self.k), dtype=np.float64)
        for t in range(1, rounds + 1):
            d_prev = demands_at(t - 1).demands
            if t % 2 == 1:
                W = self._apply_population_batched(t, W, rngs)
                W_phase = W
                p1 = lack_probabilities(d_prev - W)
                paused = self._binomial_lanes(rngs, W_phase, pause_p)
                W = W_phase - paused
                self._check(W)
                yield t, W, paused.sum(axis=-1)
            else:
                p2 = lack_probabilities(d_prev - W)
                q_leave = (1.0 - p1) * (1.0 - p2) * leave_p
                leavers = self._binomial_lanes(rngs, W_phase, q_leave)
                idle = self._n_current - W_phase.sum(axis=-1)
                joins = self._sample_joins_batched(idle, p1 * p2, rngs)
                prev_paused = W_phase - W
                W = W_phase - leavers + joins
                self._check(W)
                yield t, W, (leavers + joins + prev_paused).sum(axis=-1)

    def _run_precise_sigmoid(self, rounds: int, rngs: list[np.random.Generator]):
        """Yield ``(t, loads, switches)`` stacks for Precise Sigmoid phases."""
        alg: PreciseSigmoidAlgorithm = self.algorithm  # type: ignore[assignment]
        lack_probabilities = self._lack_probabilities
        demands_at = self.schedule.demands_at
        m = alg.m
        W = self._stack_initial_loads()
        W_phase = W
        P1 = self._xp.zeros((self.batch, self.k), dtype=np.float64)
        majority = m // 2
        hold = np.zeros(self.batch, dtype=np.int64)
        for t in range(1, rounds + 1):
            r = t % (2 * m)
            d_prev = demands_at(t - 1).demands
            if r == 1:
                W = self._apply_population_batched(t, W, rngs)
                W_phase = W
                p1 = lack_probabilities(d_prev - W_phase)
                P1 = stats.binom.sf(majority, m, p1)
            if r == m:
                paused = self._binomial_lanes(rngs, W_phase, alg.pause_probability)
                W = W_phase - paused
                self._check(W)
                yield t, W, paused.sum(axis=-1)
            elif r == 0:
                p2 = lack_probabilities(d_prev - W)
                P2 = stats.binom.sf(majority, m, p2)
                q_leave = (1.0 - P1) * (1.0 - P2) * alg.leave_probability
                leavers = self._binomial_lanes(rngs, W_phase, q_leave)
                idle = self._n_current - W_phase.sum(axis=-1)
                joins = self._sample_joins_batched(idle, P1 * P2, rngs)
                resumed = W_phase - W
                W = W_phase - leavers + joins
                self._check(W)
                yield t, W, (leavers + joins + resumed).sum(axis=-1)
            else:
                yield t, W, hold

    def _run_trivial(self, rounds: int, rngs: list[np.random.Generator]):
        """Yield ``(t, loads, switches)`` stacks for the trivial algorithm."""
        alg = self.algorithm
        lack_probabilities = self._lack_probabilities
        demands_at = self.schedule.demands_at
        leave_p = alg.leave_probability
        join_p = alg.join_probability
        W = self._stack_initial_loads()
        for t in range(1, rounds + 1):
            W = self._apply_population_batched(t, W, rngs)
            d_prev = demands_at(t - 1).demands
            p = lack_probabilities(d_prev - W)
            leavers = self._binomial_lanes(rngs, W, (1.0 - p) * leave_p)
            idle = self._n_current - W.sum(axis=-1)
            if join_p >= 1.0:
                attempters = idle
            else:
                attempters = np.array(
                    [
                        int(rng.binomial(n_idle, join_p))
                        for n_idle, rng in zip(idle.tolist(), rngs)
                    ],
                    dtype=np.int64,
                )
            joins = self._sample_joins_batched(attempters, p, rngs)
            W = W - leavers + joins
            self._check(W)
            yield t, W, (leavers + joins).sum(axis=-1)
