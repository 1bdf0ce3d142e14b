"""Agent-level synchronous simulation engine.

Implements the paper's round structure exactly (Section 2.1): in round
``t`` every ant first receives feedback sampled from the deficits at time
``t-1`` (sub-round 1), then the algorithm updates every ant's action
(sub-round 2), producing the assignment in force during round ``t``.
Regret is charged on the resulting loads each round — including the
mid-phase rounds where Algorithm Ant's temporary pauses thin the load,
exactly as the paper's ``R~`` term accounts.

The engine is generic over :class:`~repro.core.base.ColonyAlgorithm` and
:class:`~repro.env.feedback.FeedbackModel` and supports dynamic demand
schedules (Remark 3.4).  Hot-path work per round is one ``(n, k)``
Bernoulli draw plus O(n) mask updates — no per-ant Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import ColonyAlgorithm, InitialAssignment, initial_assignment_array
from repro.env.demands import DemandSchedule, DemandVector, StaticDemandSchedule
from repro.env.feedback import FeedbackModel
from repro.exceptions import ConfigurationError, SimulationError
from repro.sim.metrics import RegretTracker, RunMetrics, count_switches
from repro.sim.trace import Trace
from repro.types import AssignmentVector, loads_from_assignment
from repro.util.rng import RngFactory
from repro.util.validation import check_integer

__all__ = ["Simulator", "SimulationResult"]


@dataclass
class SimulationResult:
    """Output of one simulation run.

    ``n`` is the colony *capacity* (the size the simulator was built
    for); ``n_current`` is the number of ants alive at the end of the
    run.  They differ only for engines with dynamic populations (the
    counting engine under a :class:`~repro.env.population
    .PopulationSchedule`); fixed-population engines report both equal.
    """

    metrics: RunMetrics
    trace: Trace
    final_assignment: AssignmentVector
    rounds: int
    n: int
    k: int
    n_current: int | None = None

    def __post_init__(self) -> None:
        if self.n_current is None:
            self.n_current = self.n

    @property
    def final_loads(self) -> np.ndarray:
        return self.metrics.final_loads

    @property
    def final_deficits(self) -> np.ndarray:
        return self.metrics.final_deficits


def _coerce_schedule(demand: DemandVector | DemandSchedule) -> DemandSchedule:
    if isinstance(demand, DemandVector):
        return StaticDemandSchedule(demand)
    if isinstance(demand, DemandSchedule):
        return demand
    raise ConfigurationError(
        f"demand must be a DemandVector or DemandSchedule, got {type(demand).__name__}"
    )


class Simulator:
    """Synchronous agent-level simulator.

    Parameters
    ----------
    algorithm:
        The colony algorithm every ant runs.
    demand:
        Static :class:`DemandVector` or dynamic :class:`DemandSchedule`.
    feedback:
        Noise model producing per-(ant, task) signals.
    initial_assignment:
        Named start (:class:`InitialAssignment`), explicit array, or a
        string; defaults to ``all_idle``.
    seed:
        Root seed / generator; independent named streams are derived for
        feedback, algorithm decisions, and initialization so results are
        reproducible bit-for-bit.
    check_invariants_every:
        If positive, verify load-conservation every that many rounds
        (cheap, catches engine bugs in long runs).
    """

    def __init__(
        self,
        algorithm: ColonyAlgorithm,
        demand: DemandVector | DemandSchedule,
        feedback: FeedbackModel,
        *,
        initial_assignment: InitialAssignment | str | np.ndarray = InitialAssignment.ALL_IDLE,
        seed: int | np.random.Generator | None = None,
        check_invariants_every: int = 0,
    ) -> None:
        self.algorithm = algorithm
        self.schedule = _coerce_schedule(demand)
        self.feedback = feedback
        self.n = self.schedule.n
        self.k = self.schedule.k
        self._rng_factory = RngFactory(seed)
        self._init_spec = initial_assignment
        self.check_invariants_every = check_integer(
            "check_invariants_every", check_invariants_every, minimum=0
        )

    def run(
        self,
        rounds: int,
        *,
        trace_stride: int = 0,
        tail_window: int = 0,
        burn_in: int = 0,
    ) -> SimulationResult:
        """Run ``rounds`` rounds and return the collected metrics.

        Parameters
        ----------
        rounds:
            Number of rounds ``t = 1 .. rounds``.
        trace_stride:
            If positive, record loads every that many rounds.
        tail_window:
            Keep the last ``tail_window`` rounds densely (for
            oscillation analysis).
        burn_in:
            Rounds excluded from cumulative metrics.  Must be < ``rounds``.

        Regret is tracked with the algorithm's ``gamma`` (1/16 when it
        has none).
        """
        rounds = check_integer("rounds", rounds, minimum=1)
        burn_in = check_integer("burn_in", burn_in, minimum=0)
        if burn_in >= rounds:
            raise ConfigurationError(
                f"burn_in={burn_in} must be < rounds={rounds}; no rounds would "
                "contribute to the cumulative metrics"
            )
        gamma = getattr(self.algorithm, "gamma", 1.0 / 16.0)
        tracker = RegretTracker(gamma=float(gamma), burn_in=burn_in)
        trace = Trace(stride=trace_stride or max(rounds, 1), tail_window=tail_window)
        record_trace = trace_stride > 0 or tail_window > 0

        rng_init = self._rng_factory.stream("init")
        rng_feedback = self._rng_factory.stream("feedback")
        rng_alg = self._rng_factory.stream("algorithm")
        self.feedback.reset()

        d0 = self.schedule.demands_at(0)
        assignment = initial_assignment_array(
            self._init_spec, self.n, self.k, rng_init, demands=d0.demands
        )
        state = self.algorithm.create_state(self.n, self.k, assignment)
        prev_assignment = assignment.copy()
        loads = loads_from_assignment(assignment, self.k)

        for t in range(1, rounds + 1):
            d_prev = self.schedule.demands_at(t - 1).demands
            deficits = d_prev - loads
            lack = self.feedback.sample_lack_matrix(
                deficits, self.n, rng_feedback, t=t, demands=d_prev
            )
            assignment = self.algorithm.step(state, t, lack, rng_alg)
            loads = loads_from_assignment(assignment, self.k)
            d_now = self.schedule.demands_at(t).demands
            switches = count_switches(prev_assignment, assignment)
            r = tracker.observe(t, d_now, loads, switches)
            if record_trace:
                trace.record(t, loads, r)
            np.copyto(prev_assignment, assignment)
            if self.check_invariants_every and t % self.check_invariants_every == 0:
                self._check_invariants(assignment, loads)

        return SimulationResult(
            metrics=tracker.finalize(),
            trace=trace,
            final_assignment=assignment.copy(),
            rounds=rounds,
            n=self.n,
            k=self.k,
        )

    # ------------------------------------------------------------------
    def _check_invariants(self, assignment: AssignmentVector, loads: np.ndarray) -> None:
        if assignment.shape != (self.n,):
            raise SimulationError(f"assignment shape drifted to {assignment.shape}")
        if np.any((assignment < -1) | (assignment >= self.k)):
            raise SimulationError("assignment contains out-of-range task ids")
        total = int(loads.sum())
        idle = int(np.count_nonzero(assignment == -1))
        if total + idle != self.n:
            raise SimulationError(
                f"ant conservation violated: {total} working + {idle} idle != n={self.n}"
            )
