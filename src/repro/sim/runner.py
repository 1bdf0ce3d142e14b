"""Multi-trial orchestration: repeated runs and their summaries.

The theorems hold "w.h.p." / in expectation, so every experiment runs
multiple independent trials and reports mean +/- spread.  Trials get
independent child seeds from one root ``SeedSequence`` (reproducible and
order-independent).  In-process, counting-engine trials run as batches
of lanes (:mod:`repro.sim.batched`), bit-identical to running each trial
alone; any factory's trials can instead be farmed out to worker
processes (factories must then be picklable — module-level functions or
partials).
"""

from __future__ import annotations

import itertools
import pickle

from collections.abc import Callable, Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sim.batched import DEFAULT_BATCH, BatchedCountingSimulator
from repro.sim.counting import CountingSimulator
from repro.sim.engine import SimulationResult
from repro.util.validation import check_integer

__all__ = ["TrialSummary", "SweepResult", "run_trials"]

#: A factory mapping a trial seed to an object with ``.run(rounds, **kw)``.
SimulatorFactory = Callable[[int], Any]


@dataclass
class TrialSummary:
    """Aggregate statistics over independent trials of one configuration."""

    label: str
    trials: int
    rounds: int
    average_regrets: np.ndarray
    closenesses: np.ndarray | None
    max_abs_deficits: np.ndarray
    switches_per_round: np.ndarray
    results: list[SimulationResult] = field(repr=False, default_factory=list)
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def mean_average_regret(self) -> float:
        return float(self.average_regrets.mean())

    @property
    def std_average_regret(self) -> float:
        return float(self.average_regrets.std(ddof=1)) if self.trials > 1 else 0.0

    @property
    def mean_closeness(self) -> float:
        if self.closenesses is None:
            raise ConfigurationError("closeness unavailable (no gamma_star provided)")
        return float(self.closenesses.mean())

    @property
    def mean_max_abs_deficit(self) -> float:
        return float(self.max_abs_deficits.mean())

    @property
    def mean_switches_per_round(self) -> float:
        return float(self.switches_per_round.mean())

    def describe(self) -> str:
        """One-line human-readable summary (used by the experiment CLI)."""
        parts = [
            f"{self.label}: R(t)/t = {self.mean_average_regret:.2f}"
            f" +/- {self.std_average_regret:.2f}"
        ]
        if self.closenesses is not None:
            parts.append(f"closeness = {self.mean_closeness:.3f}")
        parts.append(f"max|deficit| = {self.mean_max_abs_deficit:.1f}")
        parts.append(f"switches/round = {self.mean_switches_per_round:.2f}")
        return "  ".join(parts)


def _run_one(
    factory: SimulatorFactory, seed: int, rounds: int, run_kwargs: dict
) -> SimulationResult:
    sim = factory(seed)
    return sim.run(rounds, **run_kwargs)


def _probe_picklable(factory: SimulatorFactory, processes: int) -> None:
    """Fail fast, with a usable message, when a factory cannot cross a
    process boundary.

    Without the probe the pickling error surfaces from deep inside
    ``ProcessPoolExecutor`` (often as a worker ``BrokenProcessPool``)
    with no hint about which argument was at fault.
    """
    try:
        pickle.dumps(factory)
    except Exception as exc:
        raise ConfigurationError(
            f"processes={processes} requires a picklable simulator factory, but "
            f"pickling this one failed: {exc!r}. Lambdas and closures over live "
            "components cannot be shipped to worker processes — use a "
            "module-level function, a functools.partial of one, or a spec-based "
            "factory (repro.scenario.ScenarioFactory pickles by construction)"
        ) from exc


def _run_in_process(
    factory: SimulatorFactory, trial_seeds: list[int], rounds: int, run_kwargs: dict
) -> list[SimulationResult]:
    """Run trials in this process: the one place that picks lane counts.

    Counting factories run in chunks of ``min(trials, DEFAULT_BATCH)``
    lanes, any other engine one trial at a time.  Chunking preserves
    trial order, and each trial's result is bit-identical to running it
    alone because every lane keeps its own seed-derived generator (see
    :mod:`repro.sim.batched`), so the chunk size never reaches a result.
    """
    sims = (factory(s) for s in trial_seeds)
    first = next(sims)
    sims = itertools.chain([first], sims)
    if not isinstance(first, CountingSimulator):
        return [sim.run(rounds, **run_kwargs) for sim in sims]
    batch = min(len(trial_seeds), DEFAULT_BATCH)
    results: list[SimulationResult] = []
    for _ in range(0, len(trial_seeds), batch):
        lanes = list(itertools.islice(sims, batch))
        results.extend(BatchedCountingSimulator(lanes).run(rounds, **run_kwargs))
    return results


def run_trials(
    factory: SimulatorFactory,
    rounds: int,
    trials: int,
    *,
    seed: int | None = 0,
    label: str = "run",
    gamma_star: float | None = None,
    total_demand: float | None = None,
    processes: int = 0,
    keep_results: bool = True,
    params: Mapping[str, Any] | None = None,
    **run_kwargs: Any,
) -> TrialSummary:
    """Run ``trials`` independent simulations and summarize.

    Parameters
    ----------
    factory:
        ``factory(trial_seed)`` builds a fresh simulator; must be
        picklable when ``processes > 0``.
    rounds, trials:
        Horizon per trial and number of trials.
    seed:
        Root seed; trial seeds are derived with ``SeedSequence.spawn``.
    gamma_star, total_demand:
        When both given, per-trial closeness is computed.
    processes:
        Worker processes, each running one trial at a time (0 = run
        in-process: counting-engine trials as batches of
        ``min(trials, DEFAULT_BATCH)`` lanes, any other engine one trial
        at a time).  Results are bit-identical either way.
    keep_results:
        Keep every :class:`SimulationResult` (set False for big sweeps).
    run_kwargs:
        Forwarded to each simulator's ``.run`` (e.g. ``burn_in``,
        ``trace_stride``).
    """
    trials = check_integer("trials", trials, minimum=1)
    rounds = check_integer("rounds", rounds, minimum=1)
    root = np.random.SeedSequence(seed)
    trial_seeds = [int(s.generate_state(1)[0]) for s in root.spawn(trials)]

    if processes > 0:
        _probe_picklable(factory, processes)
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(
                pool.map(
                    _run_one,
                    [factory] * trials,
                    trial_seeds,
                    [rounds] * trials,
                    [dict(run_kwargs)] * trials,
                )
            )
    else:
        results = _run_in_process(factory, trial_seeds, rounds, dict(run_kwargs))

    avg = np.array([r.metrics.average_regret for r in results])
    close = None
    if gamma_star is not None and total_demand is not None:
        close = np.array([r.metrics.closeness(gamma_star, total_demand) for r in results])
    return TrialSummary(
        label=label,
        trials=trials,
        rounds=rounds,
        average_regrets=avg,
        closenesses=close,
        max_abs_deficits=np.array([r.metrics.max_abs_deficit for r in results]),
        switches_per_round=np.array([r.metrics.switches_per_round for r in results]),
        results=results if keep_results else [],
        params=dict(params or {}),
    )


@dataclass
class SweepResult:
    """Summaries of a one-dimensional parameter sweep.

    ``resumed`` is populated by store-backed sweeps
    (:func:`repro.scenario.sweep_scenario` with ``store=``): one flag
    per point, ``True`` when the summary was served from a persisted
    record instead of being recomputed.  Plain sweeps leave it ``None``.
    """

    parameter: str
    values: list[Any]
    summaries: list[TrialSummary]
    resumed: list[bool] | None = None

    def series(self, attribute: str = "mean_average_regret") -> np.ndarray:
        """Extract one summary attribute per sweep point as an array."""
        return np.array([getattr(s, attribute) for s in self.summaries], dtype=np.float64)

    def table(self) -> str:
        """Plain-text table of the sweep (one row per value)."""
        lines = [f"{self.parameter:>16}  {'R(t)/t':>12}  {'closeness':>10}  {'max|D|':>8}"]
        for v, s in zip(self.values, self.summaries):
            c = f"{s.mean_closeness:10.3f}" if s.closenesses is not None else " " * 10
            lines.append(
                f"{v!s:>16}  {s.mean_average_regret:12.2f}  {c}  {s.mean_max_abs_deficit:8.1f}"
            )
        return "\n".join(lines)
