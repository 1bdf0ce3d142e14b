"""The counting engine's round programs: B trials per vectorized step.

:class:`BatchedCountingSimulator` is the counting engine's only round
loop.  It advances a *batch* of
:class:`~repro.sim.counting.CountingSimulator` lanes — independent
trials of one configuration, differing only in their seeds — with the
per-round math expressed as stacked ``(B, k)`` array programs: one demand
lookup, one feedback evaluation, one regret/metrics update per round for
the whole batch instead of one per trial.  At small and medium ``k`` a
trial's cost is dominated by exactly this Python-level per-round
overhead (a single kernel call costs microseconds), so
:func:`repro.sim.runner.run_trials` batches counting trials in-process,
and a single :meth:`CountingSimulator.run
<repro.sim.counting.CountingSimulator.run>` is a one-lane batch.

There are two round programs.  The phase program runs Precise Sigmoid's
``2m``-round phases, and Algorithm Ant as their ``m = 1`` case: one
read per sample window and no median, the reduction the paper's proof
of Theorem 3.2 makes.  The trivial algorithm's program makes a
decision every round.

**Bit-identity, not just law-equivalence.**  Every lane draws from its
own :class:`numpy.random.Generator`, derived from the lane's seed
(``RngFactory(seed).stream("counting")`` — the ``SeedSequence``
entropy/spawn-key scheme of :mod:`repro.util.rng`), and the loop issues
per lane the identical sequence of
``binomial``/``multinomial``/``multivariate_hypergeometric`` calls with
elementwise-identical arguments at every batch size.  Trial i of a
B-lane run is therefore **bit-identical** to the same trial run alone —
same loads every round, same traces, same metrics — which is a strictly
stronger claim than distributional bisimulation.  It is pinned
per-algorithm by ``tests/sim/test_batched.py`` against the scalar round
programs kept as a reference in ``tests/sim/serial_reference.py``.  The
law those programs realize, one phase of loads from every load vector,
is checked exactly against the agent chain lumped by load vector by
``tests/sim/test_lumpability.py``.

The vectorization win comes from the shared per-round math; on the
kernel side every lane reads the process's join-distribution store
(:class:`~repro.sim.counting.JoinDistributionCache`), so a
mark-probability signature appearing in several lanes the same round
(or any round) pays for at most one kernel call.  Kernel calls stay
scalar per *distinct* signature on purpose: stacking signatures with
different active sets would change the quadrature's summation order
and break bit-identity with the scalar kernel.

At B = 1 there is nothing to share, so every step takes its cheapest
exact form: draws go straight to the lane's ``Generator.binomial`` (the
block sampler's own bit-identical fallback, see
:mod:`repro.util.rng_block`) and feedback is evaluated without
de-duplicating deficit values.  Load invariants are checked once per
phase, after the decision round.
"""

from __future__ import annotations

import pickle

from collections.abc import Callable, Sequence

import numpy as np

from scipy import stats

from repro.core.ant import AntAlgorithm
from repro.core.precise_sigmoid import PreciseSigmoidAlgorithm
from repro.env.feedback import SigmoidFeedback
from repro.env.population import apply_population_change
from repro.exceptions import AnalysisError, ConfigurationError, SimulationError
from repro.obs import event as obs_event
from repro.obs import span as obs_span
from repro.sim.counting import CountingSimulator, JoinCacheStats
from repro.sim.engine import SimulationResult
from repro.sim.metrics import RunMetrics
from repro.sim.trace import Trace
from repro.types import IDLE
from repro.util.rng_block import BinomialBlockSampler
from repro.util.validation import check_integer

__all__ = ["BatchedCountingSimulator", "BatchedRegretTracker", "DEFAULT_BATCH"]

#: Lanes per chunk when ``run_trials`` batches counting trials in-process
#: (``min(trials, DEFAULT_BATCH)``), and the inert default of the
#: ``counting_batched`` spec engine's ``batch``.  Any B >= 1 is valid and
#: bit-identical.
DEFAULT_BATCH = 16


#: The regret tracker stores up to this many rounds before folding them
#: into its totals ...
TRACKER_BLOCK_ROUNDS = 1024
#: ... and at most this many distinct load entries (rows x B x k), so a
#: block's temporaries stay cache-sized.
TRACKER_BLOCK_ENTRIES = 1 << 14


class BatchedRegretTracker:
    """Vectorized :class:`~repro.sim.metrics.RegretTracker` over B lanes.

    :meth:`observe` only stores a round's demands, loads and switch
    counts, and a round whose demand and load arrays are the very
    objects of the round before (hold rounds: the engine never mutates
    a yielded stack) stores no new row at all.  Each block of stored
    rounds (see :data:`TRACKER_BLOCK_ROUNDS`) is evaluated as one array
    program over its distinct ``(B, k)`` rows, so the per-round cost is
    a few copies instead of a few dozen small array operations.  Per
    lane the arithmetic is the scalar tracker's exactly — the same
    elementwise expressions and per-round row sums, and cumulative
    totals folded round by round in order (``np.add.accumulate``) — so
    :meth:`finalize` emits per-lane :class:`~repro.sim.metrics.RunMetrics`
    bit-identical to B scalar trackers fed the same rounds.
    """

    def __init__(
        self,
        batch: int,
        k: int,
        *,
        gamma: float = 0.0625,
        c_plus: float = 3.0,
        c_minus: float = 4.0,
        band_coefficient: float = 5.0,
        burn_in: int = 0,
    ) -> None:
        self.batch = int(batch)
        self.gamma = float(gamma)
        self.c_plus = float(c_plus)
        self.c_minus = float(c_minus)
        self.band_coefficient = float(band_coefficient)
        self.burn_in = int(burn_in)
        rounds = TRACKER_BLOCK_ROUNDS
        rows = max(1, min(rounds, TRACKER_BLOCK_ENTRIES // (self.batch * k)))
        # Per stored round: its number, its row, its switch counts.
        self._ts = np.empty(rounds, dtype=np.int64)
        self._row_of = np.empty(rounds, dtype=np.int64)
        self._round_switches = np.empty((rounds, self.batch), dtype=np.int64)
        # Per distinct row: demands and loads.
        self._demands = np.empty((rows, 1, k), dtype=np.float64)
        self._loads = np.empty((rows, self.batch, k), dtype=np.int64)
        self._stored = 0
        self._rows = 0
        self._held: tuple[np.ndarray, np.ndarray] | None = None
        self._rounds = 0
        # Cumulative regret, R+, R~ and R-, one row each.
        self._cum = np.zeros((4, self.batch), dtype=np.float64)
        self._switches = np.zeros(self.batch, dtype=np.int64)
        self._max_abs_deficit = np.zeros(self.batch, dtype=np.float64)
        self._outside_band = np.zeros(self.batch, dtype=np.int64)
        self._last_loads: np.ndarray | None = None
        self._last_deficits: np.ndarray | None = None

    @staticmethod
    def regrets(demands: np.ndarray, loads: np.ndarray) -> np.ndarray:
        """Per-lane instantaneous regret ``r(t) = sum_j |d(j) - W(j)|``."""
        return np.abs(np.asarray(demands, dtype=np.float64) - loads.astype(np.float64)).sum(
            axis=-1
        )

    def observe(self, t: int, demands: np.ndarray, loads: np.ndarray, switches) -> None:
        """Record round ``t`` for all lanes.

        ``demands`` is the shared ``(k,)`` vector, ``loads`` the stacked
        ``(B, k)`` integer loads, ``switches`` the per-lane ``(B,)``
        switch counts.  ``loads`` must not be mutated afterwards.
        """
        held = self._held
        if held is None or held[0] is not loads or held[1] is not demands:
            j = self._rows
            self._demands[j, 0] = demands
            self._loads[j] = loads
            self._rows = j + 1
            self._held = (loads, demands)
        i = self._stored
        self._ts[i] = t
        self._row_of[i] = self._rows - 1
        self._round_switches[i] = switches
        self._rounds = t
        self._stored = i + 1
        if self._stored == self._ts.shape[0] or self._rows == self._loads.shape[0]:
            self._evaluate()

    def _evaluate(self) -> None:
        """Fold the stored rounds into the running totals."""
        m, n = self._stored, self._rows
        self._stored = self._rows = 0
        self._held = None
        if m == 0:
            return
        d = self._demands[:n]
        loads = self._loads[:n].astype(np.float64)
        deficits = d - loads
        self._last_loads = loads[-1]
        self._last_deficits = deficits[-1].copy()  # |deficits| overwrites them
        # Rounds past the burn-in are a suffix of the stored ones, and
        # their rows a suffix of the stored rows.
        first = int(np.searchsorted(self._ts[:m], self.burn_in, side="right"))
        if first == m:
            return
        row_of = self._row_of[first:m]
        lo = int(row_of[0])
        d, loads, deficits = d[lo:], loads[lo:], deficits[lo:]
        abs_deficits = np.abs(deficits, out=deficits)
        per_row = np.empty((4, n - lo, self.batch), dtype=np.float64)
        r, over, near, lackv = per_row
        np.add.reduce(abs_deficits, axis=-1, out=r)
        # split_regret, with the scalar expression shapes.
        x = np.subtract(loads, (1.0 + self.c_plus * self.gamma) * d)
        np.add.reduce(np.maximum(x, 0.0, out=x), axis=-1, out=over)
        np.subtract((1.0 - self.c_minus * self.gamma) * d, loads, out=x)
        np.add.reduce(np.maximum(x, 0.0, out=x), axis=-1, out=lackv)
        np.subtract(r - over, lackv, out=near)
        steps = np.empty((m - first + 1, 4, self.batch), dtype=np.float64)
        steps[0] = self._cum
        steps[1:] = per_row[:, row_of - lo].transpose(1, 0, 2)
        # One addition per round, in round order: the scalar fold.
        self._cum = np.add.accumulate(steps, axis=0)[-1]
        self._switches += self._round_switches[first:m].sum(axis=0)
        np.maximum(
            self._max_abs_deficit, abs_deficits.max(axis=(0, 2)), out=self._max_abs_deficit
        )
        band = self.band_coefficient * self.gamma * d + 3.0
        outside = (abs_deficits > band).any(axis=-1)
        self._outside_band += outside[row_of - lo].sum(axis=0)

    def finalize(self) -> list[RunMetrics]:
        """Per-lane :class:`RunMetrics`, in lane order."""
        self._evaluate()
        if self._rounds == 0 or self._last_loads is None or self._last_deficits is None:
            raise AnalysisError("no rounds observed")
        effective = self._rounds - self.burn_in
        if effective <= 0:
            raise AnalysisError(
                f"burn_in={self.burn_in} excludes all {self._rounds} observed "
                "rounds; cumulative metrics would be vacuously zero"
            )
        cum, plus, near, minus = self._cum
        return [
            RunMetrics(
                rounds=effective,
                cumulative_regret=float(cum[b]),
                regret_plus=float(plus[b]),
                regret_near=float(near[b]),
                regret_minus=float(minus[b]),
                total_switches=int(self._switches[b]),
                max_abs_deficit=float(self._max_abs_deficit[b]),
                final_loads=self._last_loads[b].copy(),
                final_deficits=self._last_deficits[b].copy(),
                rounds_outside_band=int(self._outside_band[b]),
                band_coefficient=self.band_coefficient,
            )
            for b in range(self.batch)
        ]


def _component_value(component: object) -> bytes | str:
    """A lane component compared by value: its pickled bytes, or its type
    name when it cannot be pickled (a plugin holding a lambda, say)."""
    try:
        return pickle.dumps(component)
    except Exception:
        return type(component).__name__


def _lane_signature(sim: CountingSimulator) -> tuple:
    """The configuration facets the batched loop relies on being equal.

    The loop evaluates lane 0's demand schedule, feedback and population
    for every lane, so those three are compared by value.
    """
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
        sim.pi_cache_enabled,
        _component_value(sim.feedback),
        _component_value(sim.schedule),
        _component_value(sim.population),
        sim.initial_loads.tobytes(),
    )


def _loads_to_assignment(loads: np.ndarray, living: int) -> np.ndarray:
    """Materialize *an* assignment consistent with ``loads``.

    Workers of task 0 first, then task 1, ..., then the idle ants.  Sized
    by the *living* colony, not the capacity ``n``: after a population
    shrink, dead ants must not show up as extra IDLE workers.
    """
    labels = np.append(np.arange(loads.shape[0], dtype=np.int64), IDLE)
    return np.repeat(labels, np.append(loads, living - int(loads.sum())))


class BatchedCountingSimulator(JoinCacheStats):
    """Advance B :class:`CountingSimulator` lanes as one array program.

    ``simulators`` are the lanes: independent trials of *one*
    configuration (same algorithm/demand/feedback/population/engine
    options), differing only in their seeds — exactly what a
    ``factory(seed)`` loop produces.  Configuration facets the batched
    loop depends on are validated; build lanes from a single factory.

    :meth:`run` returns one :class:`~repro.sim.engine.SimulationResult`
    per lane, in order, each bit-identical to the lane run alone.  Draws
    consume the lanes' own ``"counting"`` RNG streams, so a lane should
    not be run again after running it batched (build fresh simulators
    instead — they are cheap relative to any run).
    """

    def __init__(self, simulators: Sequence[CountingSimulator]) -> None:
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
        if len(lanes) > 1:
            signature = _lane_signature(lanes[0])
            if any(_lane_signature(sim) != signature for sim in lanes[1:]):
                raise ConfigurationError(
                    "batched lanes must share one configuration (same algorithm, "
                    "demand, feedback, population and engine options, differing "
                    "only in seed); build them from a single factory"
                )
        self.lanes = lanes
        self.batch = len(lanes)
        lane0 = lanes[0]
        self.algorithm = lane0.algorithm
        self.schedule = lane0.schedule
        self.feedback = lane0.feedback
        self.population = lane0.population
        self.n = lane0.n
        self.k = lane0.k
        self._n_current = int(self.population.population_at(0))
        # The first lane's cache view counts the whole batch's lookups.
        self._join_cache = lane0._join_cache
        # Exact vectorized replay of numpy's binomial inversion sampler;
        # removes the ~10-15 us *fixed* overhead of each per-lane
        # Generator.binomial broadcast call (see repro.util.rng_block).
        # One lane makes one such call either way, so it draws directly.
        self._binom_block = BinomialBlockSampler() if self.batch > 1 else None
        # Scalar-lam sigmoid feedback is a pure value map, and stacked
        # integer-load deficits take a few dozen distinct values; its
        # lack probabilities can be evaluated once per distinct value
        # and scattered back.  One lane has at most k values: no gain.
        self._dedup_feedback = (
            self.batch > 1
            and isinstance(self.feedback, SigmoidFeedback)
            and isinstance(self.feedback.lam, float)
        )

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

        ``trace_stride``/``tail_window`` record per-lane traces and
        ``burn_in`` excludes leading rounds from the cumulative metrics
        (see :meth:`repro.sim.engine.Simulator.run`).  Cache statistics
        reset at each call.
        """
        rounds = check_integer("rounds", rounds, minimum=1)
        burn_in = check_integer("burn_in", burn_in, minimum=0)
        if burn_in >= rounds:
            raise ConfigurationError(
                f"burn_in={burn_in} must be < rounds={rounds}; no rounds would "
                "contribute to the cumulative metrics"
            )
        gamma = getattr(self.algorithm, "gamma", 1.0 / 16.0)
        tracker = BatchedRegretTracker(self.batch, self.k, gamma=float(gamma), burn_in=burn_in)
        traces = [
            Trace(stride=trace_stride or max(rounds, 1), tail_window=tail_window)
            for _ in self.lanes
        ]
        record_trace = trace_stride > 0 or tail_window > 0
        rngs = [lane._rng_factory.stream("counting") for lane in self.lanes]
        self.feedback.reset()
        self._n_current = int(self.population.population_at(0))
        # Rewind the cache counters so back-to-back runs report one run
        # each; the store stays warm (content-addressed, so reuse across
        # runs is correct and bit-identical).
        self._join_cache.reset_stats()

        if isinstance(self.algorithm, AntAlgorithm):
            loads_iter = self._run_phases(rounds, rngs, 1)
        elif isinstance(self.algorithm, PreciseSigmoidAlgorithm):
            m = self.algorithm.m
            majority = m // 2  # median LACK iff lack-count > m/2, i.e. >= majority+1
            loads_iter = self._run_phases(
                rounds, rngs, m, lambda p: stats.binom.sf(majority, m, p)
            )
        else:
            loads_iter = self._run_trivial(rounds, rngs)

        demands_at = self.schedule.demands_at
        W = self._initial_loads()
        with obs_span(
            "counting_run",
            engine="counting",
            algorithm=type(self.algorithm).__name__,
            k=self.k,
            rounds=rounds,
            batch=self.batch,
        ):
            for t, W, switches in loads_iter:
                d_now = demands_at(t).demands
                tracker.observe(t, d_now, W, switches)
                if record_trace:
                    r = tracker.regrets(d_now, W)
                    for b, trace in enumerate(traces):
                        trace.record(t, W[b], float(r[b]))
        obs_event("pi_cache_stats", engine="counting", **self._join_cache.stats())

        metrics = tracker.finalize()
        return [
            SimulationResult(
                metrics=metrics[b],
                trace=traces[b],
                final_assignment=_loads_to_assignment(W[b], self._n_current),
                rounds=rounds,
                n=self.n,
                k=self.k,
                n_current=self._n_current,
            )
            for b in range(self.batch)
        ]

    # ------------------------------------------------------------------
    def _initial_loads(self) -> np.ndarray:
        return np.stack([lane.initial_loads for lane in self.lanes])

    def _lack_probabilities(self, deficits: np.ndarray, then=None) -> np.ndarray:
        """Feedback probabilities for the stacked deficit matrix, mapped
        through the elementwise function ``then`` when given.

        For scalar-lam sigmoid feedback the map is elementwise in the
        deficit *value*, so evaluate the few dozen distinct values once
        and gather — the gather preserves bit patterns, so this matches
        the full-matrix evaluation exactly.  Integer deficits spanning
        fewer values than the matrix holds are looked up in a table of
        their whole range, which needs no sort.
        """
        if self._dedup_feedback:
            lo, hi = int(deficits.min()), int(deficits.max())
            if deficits.dtype.kind == "i" and hi - lo < deficits.size:
                values = np.arange(lo, hi + 1, dtype=deficits.dtype)
                index = deficits - lo
            else:
                values, index = np.unique(deficits, return_inverse=True)
            probs = self.feedback.lack_probabilities(values)
            if then is not None:
                probs = then(probs)
            return probs[index].reshape(deficits.shape)
        probs = self.feedback.lack_probabilities(deficits)
        return probs if then is None else then(probs)

    def _binomial_lanes(
        self, rngs: list[np.random.Generator], counts: np.ndarray, p
    ) -> np.ndarray:
        """Per-lane ``rng.binomial(counts[b], p[b])`` — one generator per
        lane so each lane's stream consumption is the same at every batch
        size (``p`` is a float shared by all lanes, or ``(B, k)``)."""
        if self._binom_block is None:
            return rngs[0].binomial(counts, p)
        drawn = self._binom_block.draw(rngs, counts, p)
        if drawn is not None:
            return drawn
        # Outside the replay's profitable regime (large n*p, many
        # distinct p, or BTPE territory): per-lane numpy calls — slower,
        # bit-identical by construction.
        out = np.empty_like(counts)
        per_lane = isinstance(p, np.ndarray) and p.ndim > 1
        for b, rng in enumerate(rngs):
            out[b] = rng.binomial(counts[b], p[b] if per_lane else p)
        return out

    def _sample_joins(
        self,
        idle: np.ndarray,
        underload_probs: np.ndarray,
        rngs: list[np.random.Generator],
    ) -> np.ndarray:
        """Joint join counts for every lane's idle pool.

        Lane ``b``'s ``idle[b]`` exchangeable idle ants each mark task
        ``j`` w.p. ``underload_probs[b, j]`` and join a uniform marked
        task: one ``Multinomial(idle, pi)`` over the exact action
        distribution, and an empty pool draws nothing.  Each mark
        signature resolves through the process store, so lanes whose
        deficits coincide (common in steady state) share one kernel call.
        """
        k = self.k
        joins = np.zeros((self.batch, k), dtype=np.int64)
        u = np.clip(underload_probs, 0.0, 1.0)
        distribution = self._join_cache.distribution
        for b, (n_idle, rng) in enumerate(zip(idle.tolist(), rngs)):
            if n_idle > 0:
                joins[b] = rng.multinomial(n_idle, distribution(u[b]))[:k]
        return joins

    def _apply_population(
        self, t: int, W: np.ndarray, rngs: list[np.random.Generator]
    ) -> np.ndarray:
        """Resize every lane to the scheduled size at round ``t``.

        The schedule is deterministic and shared, so all lanes resize at
        the same rounds.  Deaths strike uniformly at random
        (hypergeometric across tasks and the idle pool, per lane on the
        lane's own stream); arrivals join the idle pool.  Copy-on-change:
        the incoming stack (possibly still referenced by the tracker) is
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

    # ------------------------------------------------------------------
    # Round programs.  Each yields ``(t, loads, switches)`` per round:
    # ``(B, k)`` loads and ``(B,)`` switch counts.  Every yielded stack is
    # freshly allocated (population resizes are copy-on-change), so it is
    # never mutated later and needs no defensive copy.  Pauses and leaves
    # never exceed the phase-start loads and joins never exceed the idle
    # pool, so the load check runs once per phase, after its decisions.

    def _run_phases(
        self,
        rounds: int,
        rngs: list[np.random.Generator],
        m: int,
        median: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        """Algorithm Ant (``m = 1``) and Precise Sigmoid: ``2m``-round
        phases.

        Within a phase, the loads are piecewise constant: ``W_phase``
        during the sample-1 window (assignments held), ``W_mid`` after
        the round-``m`` pause, and ``W_next`` after the end-of-phase
        decision.  Precise Sigmoid passes ``median``, the map from a
        read's lack probability to its window median's: each ant's two
        medians are i.i.d. Bernoulli with the binomially amplified
        probabilities ``P_med = P[Binom(m, s(lambda*Delta)) > m/2]``,
        which makes the phase-level colony transition identical in law
        to one Algorithm Ant phase at step size ``gamma'`` — exactly the
        reduction the Theorem 3.2 proof performs.  Ant is the ``m = 1``
        case with no median: one read per window.
        """
        alg = self.algorithm
        lack_probabilities = self._lack_probabilities
        demands_at = self.schedule.demands_at
        pause_p = alg.pause_probability
        leave_p = alg.leave_probability
        W = self._initial_loads()
        W_phase = W
        P1 = np.zeros((self.batch, self.k), dtype=np.float64)
        hold = np.zeros(self.batch, dtype=np.int64)
        for t in range(1, rounds + 1):
            r = t % (2 * m)
            d_prev = demands_at(t - 1).demands
            if r == 1:
                # Sample-1 window opens: loads frozen at W_phase.
                W = self._apply_population(t, W, rngs)
                W_phase = W
                P1 = lack_probabilities(d_prev - W_phase, median)
            if r == m:
                # End of window 1: temporary pauses thin the load.
                paused = self._binomial_lanes(rngs, W_phase, pause_p)
                W = W_phase - paused
                yield t, W, paused.sum(axis=-1)
            elif r == 0:
                # End of phase: window-2 reads (of the thinned load);
                # permanent leaves among the phase-start workers, joins
                # by idle-at-phase-start ants.
                P2 = lack_probabilities(d_prev - W, median)
                q_leave = (1.0 - P1) * (1.0 - P2) * leave_p
                leavers = self._binomial_lanes(rngs, W_phase, q_leave)
                idle = self._n_current - W_phase.sum(axis=-1)
                joins = self._sample_joins(idle, P1 * P2, rngs)
                resumed = W_phase - W
                W = W_phase - leavers + joins
                self._check(W)
                # Switches: leavers + joiners + resumers returning to work
                # (pauses were counted in the round they paused).
                yield t, W, (leavers + joins + resumed).sum(axis=-1)
            else:
                # Hold rounds: loads unchanged.
                yield t, W, hold

    def _run_trivial(self, rounds: int, rngs: list[np.random.Generator]):
        """The trivial algorithm: every round is a phase."""
        alg = self.algorithm
        lack_probabilities = self._lack_probabilities
        demands_at = self.schedule.demands_at
        leave_p = alg.leave_probability
        join_p = alg.join_probability
        W = self._initial_loads()
        for t in range(1, rounds + 1):
            W = self._apply_population(t, W, rngs)
            d_prev = demands_at(t - 1).demands
            p = lack_probabilities(d_prev - W)
            leavers = self._binomial_lanes(rngs, W, (1.0 - p) * leave_p)
            idle = self._n_current - W.sum(axis=-1)
            if join_p >= 1.0:
                attempters = idle
            else:
                # Rate-limited variant: only a q-thinned subset of idle
                # ants attempts to join this round.
                attempters = np.array(
                    [int(rng.binomial(n_idle, join_p)) for n_idle, rng in zip(idle.tolist(), rngs)],
                    dtype=np.int64,
                )
            joins = self._sample_joins(attempters, p, rngs)
            W = W - leavers + joins
            self._check(W)
            yield t, W, (leavers + joins).sum(axis=-1)
