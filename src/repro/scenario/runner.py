"""One entry point from spec to results: ``run_scenario`` / ``sweep_scenario``.

``run_scenario(spec)`` runs a single simulation and returns a
:class:`~repro.sim.engine.SimulationResult`; ``run_scenario(spec,
trials=...)`` routes through :func:`repro.sim.runner.run_trials` and
returns a :class:`~repro.sim.runner.TrialSummary`.  Counting-engine
trials run in-process as batches of lanes.  The trial factory
is :class:`ScenarioFactory` — a picklable wrapper around the spec — so
``parallel=P`` instead farms trials to ``P`` worker processes for *any*
configuration.  Results are bit-identical either way (per-trial seeds
are derived from the root seed).

``sweep_scenario`` generalizes the one-parameter sweep: each swept value
is applied to the spec via :meth:`ScenarioSpec.with_param` dotted paths
(``"algorithm.gamma"``, ``"feedback.lam"``, ...), so the entire sweep
stays declarative and process-parallel.

Sweeps are additionally *resumable*: pass ``store=`` (a
:class:`~repro.store.ResultStore` or a directory path) and every
completed point is committed to disk as an atomic record keyed by a
content digest of everything that determines its result — the derived
spec's JSON, the swept parameter and value, horizon, trial count, run
params, and the point's seed root.  Re-invoking the same sweep serves
committed points and returns aggregates *bit-identical* to an
uninterrupted run (float64 arrays round-trip exactly); only missing
points execute.  Point seed roots are themselves digest-derived: a
pure function of the point's own identity, so inserting a value into a
sweep cannot silently reshuffle the seeds — and therefore the results —
of existing points.

One sweep point is a :class:`PointJob`: its identity (derived spec, seed
root, digest, label), its computation and its record.  Sweeps, grid
workers (:mod:`repro.sched`) and the scenario service
(:mod:`repro.serve`) all run points through it, so a record's bytes do
not depend on which path computed it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro._version import __version__
from repro.exceptions import ConfigurationError, SweepInterrupted
from repro.sim.engine import SimulationResult
from repro.sim.runner import SweepResult, TrialSummary, run_trials
from repro.store import (
    NUMERICS_VERSION,
    STORE_FORMAT,
    ResultStore,
    canonical_json,
    digest_hex,
    seed_from_digest,
)
from repro.util.validation import check_integer

from repro.scenario.spec import ScenarioSpec

__all__ = [
    "PointJob",
    "ScenarioFactory",
    "run_scenario",
    "sweep_scenario",
    "sweep_point_digest",
    "sweep_point_seed",
]

#: Digest-key form of the empty coordinate (a bare-spec service request):
#: real sweep coordinates are dotted component paths, so the empty
#: parameter cannot collide with one.
EMPTY_COORDINATE: tuple[str, None] = ("", None)


@dataclass(frozen=True)
class ScenarioFactory:
    """Picklable ``seed -> simulator`` factory for multi-trial runs.

    Specs are plain data, so instances survive ``pickle`` and can be
    shipped to ``ProcessPoolExecutor`` workers — unlike closures over
    live simulator components.
    """

    spec: ScenarioSpec

    def __call__(self, seed: int) -> Any:
        return self.spec.build(seed=seed)


def _closeness_inputs(spec: ScenarioSpec) -> tuple[float | None, float | None]:
    """``(gamma_star, total_demand)`` for trial summaries, when available."""
    if spec.gamma_star is None:
        return None, None
    return spec.gamma_star, float(spec.initial_demand().total)


def run_scenario(
    spec: ScenarioSpec,
    *,
    rounds: int | None = None,
    trials: int = 1,
    parallel: int = 0,
    seed: int | None = None,
    label: str | None = None,
    keep_results: bool = True,
    **run_overrides: Any,
) -> SimulationResult | TrialSummary:
    """Run a declarative scenario end to end.

    Parameters
    ----------
    spec:
        The scenario to run.
    rounds:
        Horizon; defaults to ``spec.rounds``.
    trials:
        Number of independent trials.  ``trials=1`` (default) runs once
        and returns the full :class:`SimulationResult`; ``trials > 1``
        returns a :class:`TrialSummary` with per-trial seeds derived
        from the root seed.
    parallel:
        Worker processes for multi-trial runs, one trial per worker at a
        time (0 = in-process).  The statistics are bit-identical to the
        in-process path.
    seed:
        Root seed override; defaults to ``spec.seed``.
    label:
        Summary label override; defaults to ``spec.describe()``.
    run_overrides:
        Extra ``run()`` kwargs, overriding ``spec.run_params`` (e.g.
        ``burn_in``, ``trace_stride``).
    """
    rounds = check_integer("rounds", spec.rounds if rounds is None else rounds, minimum=1)
    trials = check_integer("trials", trials, minimum=1)
    parallel = check_integer("parallel", parallel, minimum=0)
    run_kwargs = {**spec.run_params, **run_overrides}
    root_seed = spec.seed if seed is None else check_integer("seed", seed, minimum=0)

    if trials == 1:
        if parallel > 0:
            raise ConfigurationError(
                "parallel workers only apply to multi-trial runs; pass trials > 1 "
                f"(got trials=1, parallel={parallel})"
            )
        simulator = spec.build(seed=root_seed)
        return simulator.run(rounds, **run_kwargs)

    gamma_star, total_demand = _closeness_inputs(spec)
    return run_trials(
        ScenarioFactory(spec),
        rounds,
        trials,
        seed=root_seed,
        label=spec.describe() if label is None else label,
        gamma_star=gamma_star,
        total_demand=total_demand,
        processes=parallel,
        keep_results=keep_results,
        **run_kwargs,
    )


def _coordinate_key(parameter: str | Sequence[str], value: Any) -> tuple[Any, Any]:
    """Canonical ``(parameter, value)`` digest-key forms of a coordinate.

    A plain dotted path keeps its scalar form, so single-axis grid
    points digest identically to classic ``sweep_scenario`` points — a
    store populated by one is resumable by the other.  A multi-parameter
    grid coordinate (sequences of paths and values, same length) is
    keyed as parallel lists; a length-1 sequence collapses to the scalar
    form for the same reason.
    """
    if isinstance(parameter, str):
        return parameter, value
    parameters = list(parameter)
    values = list(value)
    if len(parameters) != len(values):
        raise ConfigurationError(
            f"coordinate has {len(parameters)} parameter(s) but {len(values)} value(s)"
        )
    if not parameters:
        raise ConfigurationError("a sweep coordinate needs at least one parameter")
    if len(parameters) == 1:
        return parameters[0], values[0]
    return parameters, values


def sweep_point_digest(
    derived_spec: ScenarioSpec,
    parameter: str | Sequence[str],
    value: Any,
    *,
    rounds: int,
    trials: int,
    run_params: dict[str, Any],
    point_seed: int,
) -> str:
    """Content digest keying one sweep point's persisted record.

    Covers everything that determines the point's summary: the derived
    spec (components, engine, base seed), the swept coordinate, the
    horizon and trial count, the merged run params, the point's seed
    root, and the engine's :data:`~repro.store.NUMERICS_VERSION`.  Two
    sweep invocations that agree on all of these are interchangeable —
    their records may be shared — and any difference produces a
    different digest, so stale reuse is structurally impossible: a record
    committed under older numerics reads as absent.

    ``parameter`` is a dotted path for classic one-parameter sweeps, or
    a sequence of paths (with ``value`` the matching sequence of values)
    for one point of a multi-parameter grid
    (:class:`repro.sched.GridSpec`); see :func:`_coordinate_key` for the
    compatibility guarantee between the two forms.
    """
    parameter, value = _coordinate_key(parameter, value)
    return digest_hex(
        {
            "format": STORE_FORMAT,
            "numerics": NUMERICS_VERSION,
            "kind": "sweep_point",
            "spec": derived_spec.to_dict(),
            "parameter": parameter,
            "value": value,
            "rounds": rounds,
            "trials": trials,
            "run_params": run_params,
            "point_seed": point_seed,
        }
    )


def sweep_point_seed(
    derived_spec: ScenarioSpec,
    parameter: str | Sequence[str],
    value: Any,
    root_seed: int,
) -> int:
    """Insertion-stable seed root: a function of the point, not its index.

    Deliberately excludes ``rounds`` / ``trials`` / run params and the
    numerics version: the seed root identifies the *point*, and the
    trial runner spawns per-trial seeds beneath it — so extending a
    sweep's horizon or trial count later, or changing the engine's
    numerics, keeps the point on the same stream family.  Accepts the
    same scalar-or-sequence coordinate forms as
    :func:`sweep_point_digest`.
    """
    parameter, value = _coordinate_key(parameter, value)
    seed_key = {
        "format": STORE_FORMAT,
        "kind": "sweep_point_seed",
        "spec": derived_spec.to_dict(),
        "parameter": parameter,
        "value": value,
    }
    return seed_from_digest(digest_hex(seed_key), root_seed)


@dataclass(frozen=True)
class PointJob:
    """One sweep point: its identity, its computation and its record.

    Built from a base spec, an ordered coordinate of ``(dotted path,
    value)`` pairs (empty for a bare-spec service request), the horizon,
    the trial count and the merged run params.  Construction
    canonicalizes the coordinate through canonical JSON — a tuple value
    and the list a grid axis holds are one coordinate — and derives,
    once, the point's spec, seed root (:func:`sweep_point_seed`), store
    digest (:func:`sweep_point_digest`) and label.  ``sweep_scenario``,
    grid workers and the scenario service all compute, commit and read
    points through a job, so a record's bytes never depend on which path
    wrote it.
    """

    base: ScenarioSpec
    coordinate: tuple[tuple[str, Any], ...]
    rounds: int
    trials: int
    run_params: dict[str, Any]
    spec: ScenarioSpec = field(init=False, repr=False, compare=False)
    seed: int = field(init=False, compare=False)
    digest: str = field(init=False, compare=False)
    label: str = field(init=False, compare=False)

    def __post_init__(self) -> None:
        pairs = tuple(self.coordinate)
        values = json.loads(canonical_json([value for _, value in pairs]))
        coordinate = tuple(zip((parameter for parameter, _ in pairs), values))
        object.__setattr__(self, "coordinate", coordinate)
        spec = self.base
        for parameter, value in coordinate:
            spec = spec.with_param(parameter, value)
        parameter, value = self.key
        seed = sweep_point_seed(spec, parameter, value, self.base.seed)
        digest = sweep_point_digest(
            spec,
            parameter,
            value,
            rounds=self.rounds,
            trials=self.trials,
            run_params=self.run_params,
            point_seed=seed,
        )
        label = ",".join(f"{p}={v}" for p, v in coordinate) or self.base.describe()
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "digest", digest)
        object.__setattr__(self, "label", label)

    @property
    def key(self) -> tuple[Any, Any]:
        """The coordinate's digest-key form: :data:`EMPTY_COORDINATE` when
        empty, else as :func:`_coordinate_key` renders it."""
        if not self.coordinate:
            return EMPTY_COORDINATE
        return _coordinate_key([p for p, _ in self.coordinate], [v for _, v in self.coordinate])

    @property
    def params(self) -> dict[str, Any]:
        """The coordinate as ``{path: value}`` (a summary's ``params``)."""
        return dict(self.coordinate)

    def compute(self, *, parallel: int = 0) -> TrialSummary:
        """Run the point's trials — the one point-level ``run_trials`` call.

        Closeness is measured against the *base* spec's ``gamma_star``
        and total demand (sweeping the demand itself therefore reports
        closeness against the base demand).  The summary keeps no
        per-trial results: a record persists summaries only.
        ``parallel`` is as in :func:`run_scenario`.
        """
        gamma_star, total_demand = _closeness_inputs(self.base)
        return run_trials(
            ScenarioFactory(self.spec),
            self.rounds,
            self.trials,
            seed=self.seed,
            label=self.label,
            gamma_star=gamma_star,
            total_demand=total_demand,
            processes=parallel,
            keep_results=False,
            params=self.params,
            **self.run_params,
        )

    def point_record(self, summary: TrialSummary) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """``(arrays, meta)`` persisting a computed summary (results excluded).

        Deliberately no wall-clock field (RPR002): record bytes are a
        pure function of the point, so stores written by any path
        byte-compare.  The coordinate takes its digest-key form
        (:attr:`key`).
        """
        arrays: dict[str, np.ndarray] = {
            "average_regrets": summary.average_regrets,
            "max_abs_deficits": summary.max_abs_deficits,
            "switches_per_round": summary.switches_per_round,
        }
        if summary.closenesses is not None:
            arrays["closenesses"] = summary.closenesses
        parameter, value = self.key
        meta = {
            "kind": "sweep_point",
            "label": summary.label,
            "trials": summary.trials,
            "rounds": summary.rounds,
            "parameter": parameter,
            "value": value,
            "repro_version": __version__,
        }
        return arrays, meta

    def read(self, store: ResultStore) -> TrialSummary | None:
        """The committed summary, or ``None`` when the record is absent,
        unreadable or foreign (the caller then recomputes it)."""
        record = store.read_record(self.digest)
        if record is None or record.meta.get("kind") != "sweep_point":
            return None
        meta, arrays = record.meta, record.arrays
        try:
            return TrialSummary(
                label=str(meta["label"]),
                trials=int(meta["trials"]),
                rounds=int(meta["rounds"]),
                average_regrets=arrays["average_regrets"],
                closenesses=arrays.get("closenesses"),
                max_abs_deficits=arrays["max_abs_deficits"],
                switches_per_round=arrays["switches_per_round"],
                results=[],
                params=self.params,
            )
        except (KeyError, TypeError, ValueError):
            return None


def sweep_scenario(
    spec: ScenarioSpec,
    parameter: str,
    values: Iterable[Any],
    *,
    rounds: int | None = None,
    trials: int = 5,
    parallel: int = 0,
    store: "ResultStore | str | None" = None,
    max_new_points: int | None = None,
    **run_overrides: Any,
) -> SweepResult:
    """Sweep one spec parameter (dotted path) over ``values``.

    Each value is one :class:`PointJob` over ``spec``: a derived spec
    via ``spec.with_param(parameter, value)``, run for ``trials``
    trials, with closeness against the *base* spec's ``gamma_star`` and
    total demand.

    Store-backed sweeps (``store=`` a :class:`~repro.store.ResultStore`
    or directory path) persist every completed point as an atomic record
    keyed by :func:`sweep_point_digest`.  Committed points are served
    from disk — bit-identical to a fresh run — and only missing points
    execute; ``SweepResult.resumed`` reports, per point, which path it
    took.  ``max_new_points`` bounds how many points may be *computed*
    before the sweep raises :class:`~repro.exceptions.SweepInterrupted`
    (the deterministic stand-in for a killed process in the resume tests
    and CI smoke).  A sweep takes no leases: it reads and commits points
    directly.  Summaries keep no per-trial results.

    Only component params (``"component.param"`` paths) are sweepable:
    the trial runner controls the horizon and seed derivation itself,
    so a derived spec's ``rounds`` / ``seed`` fields would be silently
    ignored — pass ``rounds=`` here (or run separate sweeps) instead.
    """
    if "." not in parameter:
        raise ConfigurationError(
            f"sweep_scenario sweeps component params like 'algorithm.gamma'; "
            f"top-level field {parameter!r} is fixed per sweep (the trial runner "
            "supplies rounds and per-trial seeds) — pass it as a keyword instead"
        )
    values = list(values)
    if not values:
        raise ConfigurationError("sweep needs at least one value")
    rounds = check_integer("rounds", spec.rounds if rounds is None else rounds, minimum=1)
    trials = check_integer("trials", trials, minimum=1)
    if max_new_points is not None:
        max_new_points = check_integer("max_new_points", max_new_points, minimum=0)

    if store is not None:
        store = ResultStore.coerce(store)

    run_params = {**spec.run_params, **run_overrides}
    jobs = [PointJob(spec, ((parameter, value),), rounds, trials, run_params) for value in values]

    summaries: list[TrialSummary] = []
    resumed: list[bool] = []
    new_points = 0
    for job in jobs:
        if store is not None:
            summary = job.read(store)
            if summary is not None:
                summaries.append(summary)
                resumed.append(True)
                continue
        if max_new_points is not None and new_points >= max_new_points:
            raise SweepInterrupted(
                f"sweep over {parameter!r} stopped after computing "
                f"{new_points} new point(s) (max_new_points={max_new_points}); "
                f"{len(summaries)} of {len(values)} points are committed — "
                "re-run the sweep to continue"
            )
        summary = job.compute(parallel=parallel)
        new_points += 1
        if store is not None:
            store.write_record(job.digest, *job.point_record(summary))
        summaries.append(summary)
        resumed.append(False)
    return SweepResult(
        parameter=parameter,
        values=values,
        summaries=summaries,
        resumed=resumed if store is not None else None,
    )
