"""Simulation engines and instrumentation.

* :class:`~repro.sim.engine.Simulator` — agent-level synchronous engine:
  exact implementation of the model for any algorithm / noise model.
* :class:`~repro.sim.counting.CountingSimulator` — task-level engine for
  Algorithm Ant and the trivial algorithm under i.i.d. noise: O(k) work
  per round via binomial/multinomial draws, exact in distribution.
* :class:`~repro.sim.batched.BatchedCountingSimulator` — the counting
  engine's round loop: B counting trials advanced as one (B, k) array
  program, each lane bit-identical to its trial run alone (a single
  ``CountingSimulator.run`` is a one-lane batch).
* :class:`~repro.sim.sequential.SequentialSimulator` — the Appendix D.1
  one-ant-per-round schedule.
* :mod:`~repro.sim.metrics` — regret / closeness / deficit traces.
* :mod:`~repro.sim.runner` — multi-trial orchestration and sweeps.
"""

from repro.sim.metrics import (
    RegretTracker,
    RunMetrics,
    average_regret,
    closeness,
    regret_from_loads,
    split_regret,
)
from repro.sim.trace import Trace
from repro.sim.engine import Simulator, SimulationResult
from repro.sim.counting import CountingSimulator, JoinDistributionCache
from repro.sim.batched import BatchedCountingSimulator, BatchedRegretTracker, DEFAULT_BATCH
from repro.sim.sequential import SequentialSimulator
from repro.sim.runner import TrialSummary, SweepResult, run_trials

__all__ = [
    "RegretTracker",
    "RunMetrics",
    "average_regret",
    "closeness",
    "regret_from_loads",
    "split_regret",
    "Trace",
    "Simulator",
    "SimulationResult",
    "CountingSimulator",
    "JoinDistributionCache",
    "BatchedCountingSimulator",
    "BatchedRegretTracker",
    "DEFAULT_BATCH",
    "SequentialSimulator",
    "TrialSummary",
    "SweepResult",
    "run_trials",
]
