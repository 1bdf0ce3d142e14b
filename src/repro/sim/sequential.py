"""Sequential scheduler (Appendix D.1).

One uniformly random ant acts per round, using feedback of the previous
round's loads.  Under this schedule even the memoryless trivial algorithm
converges: once a task is overloaded by ``~gamma* d``, every subsequent
ant sees the overload w.h.p. and refrains from joining, so the regret
settles at ``Theta(gamma* sum_j d(j))`` — matching the optimal
synchronous regret up to constants (experiment E10).

The scheduler accepts any algorithm exposing ``step_single(state, ant,
lack_row, rng)`` (currently :class:`~repro.core.trivial.TrivialAlgorithm`).
"""

from __future__ import annotations

import numpy as np

from repro.env.demands import DemandSchedule, DemandVector
from repro.env.feedback import FeedbackModel
from repro.exceptions import ConfigurationError
from repro.sim.engine import SimulationResult, _coerce_schedule
from repro.sim.metrics import RegretTracker, count_switches
from repro.sim.trace import Trace
from repro.core.base import InitialAssignment, initial_assignment_array
from repro.types import loads_from_assignment
from repro.util.rng import RngFactory
from repro.util.validation import check_integer

__all__ = ["SequentialSimulator"]


class SequentialSimulator:
    """One-ant-per-round scheduler (the Appendix D.1 sequential model)."""

    def __init__(
        self,
        algorithm,
        demand: DemandVector | DemandSchedule,
        feedback: FeedbackModel,
        *,
        initial_assignment: InitialAssignment | str | np.ndarray = InitialAssignment.ALL_IDLE,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if not hasattr(algorithm, "step_single"):
            raise ConfigurationError(
                f"{type(algorithm).__name__} does not implement step_single(); "
                "the sequential model needs a per-ant step"
            )
        self.algorithm = algorithm
        self.schedule = _coerce_schedule(demand)
        self.feedback = feedback
        self.n = self.schedule.n
        self.k = self.schedule.k
        self._init_spec = initial_assignment
        self._rng_factory = RngFactory(seed)

    def run(
        self,
        rounds: int,
        *,
        trace_stride: int = 0,
        tail_window: int = 0,
        burn_in: int = 0,
    ) -> SimulationResult:
        """Run ``rounds`` single-ant rounds; same options as :class:`Simulator`."""
        rounds = check_integer("rounds", rounds, minimum=1)
        burn_in = check_integer("burn_in", burn_in, minimum=0)
        if burn_in >= rounds:
            raise ConfigurationError(
                f"burn_in={burn_in} must be < rounds={rounds}; no rounds would "
                "contribute to the cumulative metrics"
            )
        tracker = RegretTracker(gamma=1.0 / 16.0, burn_in=burn_in)
        trace = Trace(stride=trace_stride or max(rounds, 1), tail_window=tail_window)
        record_trace = trace_stride > 0 or tail_window > 0

        rng_init = self._rng_factory.stream("init")
        rng_feedback = self._rng_factory.stream("feedback")
        rng_alg = self._rng_factory.stream("algorithm")
        rng_sched = self._rng_factory.stream("scheduler")
        self.feedback.reset()

        d0 = self.schedule.demands_at(0)
        assignment = initial_assignment_array(
            self._init_spec, self.n, self.k, rng_init, demands=d0.demands
        )
        state = self.algorithm.create_state(self.n, self.k, assignment)
        loads = loads_from_assignment(state.assignment, self.k)
        prev = state.assignment.copy()

        for t in range(1, rounds + 1):
            d_prev = self.schedule.demands_at(t - 1).demands
            deficits = d_prev - loads
            ant = int(rng_sched.integers(self.n))
            lack_row = self.feedback.sample_lack_matrix(
                deficits, 1, rng_feedback, t=t, demands=d_prev
            )[0]
            self.algorithm.step_single(state, ant, lack_row, rng_alg)
            loads = loads_from_assignment(state.assignment, self.k)
            d_now = self.schedule.demands_at(t).demands
            switches = count_switches(prev, state.assignment)
            r = tracker.observe(t, d_now, loads, switches)
            if record_trace:
                trace.record(t, loads, r)
            np.copyto(prev, state.assignment)

        return SimulationResult(
            metrics=tracker.finalize(),
            trace=trace,
            final_assignment=state.assignment.copy(),
            rounds=rounds,
            n=self.n,
            k=self.k,
        )
