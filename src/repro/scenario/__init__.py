"""Declarative scenario layer: specs in, results out.

Makes every simulation a serializable configuration (see
:mod:`repro.scenario.spec`) and provides the single entry point
:func:`run_scenario` plus the declarative :func:`sweep_scenario`.

Quick use::

    from repro.scenario import ScenarioSpec, run_scenario

    spec = ScenarioSpec(
        algorithm={"name": "ant", "params": {"gamma": 0.025}},
        demand={"name": "uniform", "params": {"n": 4000, "k": 4}},
        feedback={"name": "calibrated_sigmoid", "params": {"gamma_star": 0.01}},
        engine={"name": "counting"},
        rounds=10_000,
        gamma_star=0.01,
    )
    summary = run_scenario(spec, trials=8, parallel=4, burn_in=5000)
    print(summary.describe())
    open("scenario.json", "w").write(spec.to_json())
"""

from repro.scenario.engines import (
    ENGINES,
    available_engines,
    make_engine,
    register_engine,
    unregister_engine,
)
from repro.scenario.spec import (
    AlgorithmSpec,
    DemandSpec,
    EngineSpec,
    FeedbackSpec,
    PopulationSpec,
    ScenarioSpec,
)
from repro.scenario.runner import (
    PointJob,
    ScenarioFactory,
    run_scenario,
    sweep_point_digest,
    sweep_point_seed,
    sweep_scenario,
)

__all__ = [
    "PointJob",
    "sweep_point_digest",
    "sweep_point_seed",
    "AlgorithmSpec",
    "FeedbackSpec",
    "DemandSpec",
    "PopulationSpec",
    "EngineSpec",
    "ScenarioSpec",
    "ScenarioFactory",
    "run_scenario",
    "sweep_scenario",
    "ENGINES",
    "make_engine",
    "available_engines",
    "register_engine",
    "unregister_engine",
]
