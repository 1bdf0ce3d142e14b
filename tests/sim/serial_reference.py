"""Scalar reference round programs of the counting engine.

One trial, one ``(k,)`` load vector, one ``Generator`` call per draw:
the counting engine as it was written before every run became a batch
of lanes (:mod:`repro.sim.batched`).  :func:`run_serial` takes a
:class:`~repro.sim.counting.CountingSimulator` for its configuration and
seed and returns the :class:`~repro.sim.engine.SimulationResult` the
batched engine must reproduce bit for bit, lane by lane, at every batch
size.  Join distributions come straight from the kernel (no cache
tiers), metrics from the scalar :class:`~repro.sim.metrics.RegretTracker`,
and load invariants are checked every round.
"""

from __future__ import annotations

import numpy as np

from scipy import stats

from repro.core.ant import AntAlgorithm
from repro.core.precise_sigmoid import PreciseSigmoidAlgorithm
from repro.env.population import apply_population_change
from repro.exceptions import SimulationError
from repro.sim.counting import CountingSimulator
from repro.sim.engine import SimulationResult
from repro.sim.metrics import RegretTracker
from repro.sim.trace import Trace
from repro.types import IDLE
from repro.util.mathx import exact_join_probabilities

__all__ = ["run_serial"]


class _SerialRun:
    def __init__(self, sim: CountingSimulator, rng: np.random.Generator) -> None:
        self.sim = sim
        self.rng = rng
        self.k = sim.k
        self.n_current = int(sim.population.population_at(0))

    # -- draws ----------------------------------------------------------
    def apply_population(self, t: int, W: np.ndarray) -> np.ndarray:
        n_new = int(self.sim.population.population_at(t))
        idle = self.n_current - int(W.sum())
        if n_new != self.n_current:
            W, idle = apply_population_change(W, idle, n_new, self.rng)
            self.n_current = n_new
        return W

    def sample_joins(self, idle: int, underload_probs: np.ndarray) -> np.ndarray:
        if idle <= 0:
            return np.zeros(self.k, dtype=np.int64)
        u = np.clip(underload_probs, 0.0, 1.0)
        counts = self.rng.multinomial(idle, exact_join_probabilities(u))
        return counts[: self.k].astype(np.int64)

    def check(self, W: np.ndarray) -> None:
        if np.any(W < 0) or int(W.sum()) > self.n_current:
            raise SimulationError(f"load vector out of range: {W} (living ants={self.n_current})")

    # -- round programs -------------------------------------------------
    def ant(self, rounds: int):
        alg = self.sim.algorithm
        schedule, feedback, rng = self.sim.schedule, self.sim.feedback, self.rng
        W = self.sim.initial_loads.copy()
        W_phase = W.copy()
        p1 = np.zeros(self.k, dtype=np.float64)
        for t in range(1, rounds + 1):
            d_prev = schedule.demands_at(t - 1).demands
            if t % 2 == 1:
                W = self.apply_population(t, W)
                W_phase = W.copy()
                p1 = feedback.lack_probabilities(d_prev - W)
                paused = rng.binomial(W_phase, alg.pause_probability)
                W = W_phase - paused
                self.check(W)
                yield t, W.copy(), int(paused.sum())
            else:
                p2 = feedback.lack_probabilities(d_prev - W)
                q_leave = (1.0 - p1) * (1.0 - p2) * alg.leave_probability
                leavers = rng.binomial(W_phase, q_leave)
                idle = self.n_current - int(W_phase.sum())
                joins = self.sample_joins(idle, p1 * p2)
                prev_paused = W_phase - W
                W = W_phase - leavers + joins
                self.check(W)
                yield t, W.copy(), int(leavers.sum() + joins.sum() + prev_paused.sum())

    def precise_sigmoid(self, rounds: int):
        alg = self.sim.algorithm
        schedule, feedback, rng = self.sim.schedule, self.sim.feedback, self.rng
        m = alg.m
        W = self.sim.initial_loads.copy()
        W_phase = W.copy()
        P1 = np.zeros(self.k, dtype=np.float64)
        majority = m // 2
        for t in range(1, rounds + 1):
            r = t % (2 * m)
            d_prev = schedule.demands_at(t - 1).demands
            if r == 1:
                W = self.apply_population(t, W)
                W_phase = W.copy()
                P1 = stats.binom.sf(majority, m, feedback.lack_probabilities(d_prev - W_phase))
            if r == m:
                paused = rng.binomial(W_phase, alg.pause_probability)
                W = W_phase - paused
                self.check(W)
                yield t, W.copy(), int(paused.sum())
            elif r == 0:
                P2 = stats.binom.sf(majority, m, feedback.lack_probabilities(d_prev - W))
                q_leave = (1.0 - P1) * (1.0 - P2) * alg.leave_probability
                leavers = rng.binomial(W_phase, q_leave)
                idle = self.n_current - int(W_phase.sum())
                joins = self.sample_joins(idle, P1 * P2)
                resumed = W_phase - W
                W = W_phase - leavers + joins
                self.check(W)
                yield t, W.copy(), int(leavers.sum() + joins.sum() + resumed.sum())
            else:
                yield t, W.copy(), 0

    def trivial(self, rounds: int):
        alg = self.sim.algorithm
        schedule, feedback, rng = self.sim.schedule, self.sim.feedback, self.rng
        W = self.sim.initial_loads.copy()
        for t in range(1, rounds + 1):
            W = self.apply_population(t, W)
            d_prev = schedule.demands_at(t - 1).demands
            p = feedback.lack_probabilities(d_prev - W)
            leavers = rng.binomial(W, (1.0 - p) * alg.leave_probability)
            idle = self.n_current - int(W.sum())
            attempters = (
                idle
                if alg.join_probability >= 1.0
                else int(rng.binomial(idle, alg.join_probability))
            )
            joins = self.sample_joins(attempters, p)
            W = W - leavers + joins
            self.check(W)
            yield t, W.copy(), int(leavers.sum() + joins.sum())


def run_serial(
    sim: CountingSimulator,
    rounds: int,
    *,
    trace_stride: int = 0,
    tail_window: int = 0,
    burn_in: int = 0,
) -> SimulationResult:
    """Run ``sim``'s configuration and seed through the scalar programs.

    Consumes ``sim``'s ``"counting"`` stream, so pass a fresh simulator.
    """
    gamma = getattr(sim.algorithm, "gamma", 1.0 / 16.0)
    tracker = RegretTracker(gamma=float(gamma), burn_in=burn_in)
    trace = Trace(stride=trace_stride or max(rounds, 1), tail_window=tail_window)
    record_trace = trace_stride > 0 or tail_window > 0
    sim.feedback.reset()
    run = _SerialRun(sim, sim._rng_factory.stream("counting"))
    if isinstance(sim.algorithm, AntAlgorithm):
        program = run.ant(rounds)
    elif isinstance(sim.algorithm, PreciseSigmoidAlgorithm):
        program = run.precise_sigmoid(rounds)
    else:
        program = run.trivial(rounds)
    loads = sim.initial_loads
    for t, loads, switches in program:
        r = tracker.observe(t, sim.schedule.demands_at(t).demands, loads, switches)
        if record_trace:
            trace.record(t, loads, r)
    assignment = np.full(run.n_current, IDLE, dtype=np.int64)
    pos = 0
    for j, w in enumerate(loads):
        assignment[pos : pos + int(w)] = j
        pos += int(w)
    return SimulationResult(
        metrics=tracker.finalize(),
        trace=trace,
        final_assignment=assignment,
        rounds=rounds,
        n=sim.n,
        k=sim.k,
        n_current=run.n_current,
    )
