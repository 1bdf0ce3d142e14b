"""repro — Self-stabilizing distributed task allocation under noisy feedback.

A production-quality reproduction of

    Dornhaus, Lynch, Mallmann-Trenn, Pajak, Radeva:
    "Self-Stabilizing Task Allocation In Spite of Noise", SPAA 2020
    (arXiv:1805.03691).

Quickstart
----------
Every simulation is a declarative, serializable :class:`ScenarioSpec`:
pick components by registry name, run through one entry point.

>>> from repro import ScenarioSpec, run_scenario
>>> spec = ScenarioSpec(
...     algorithm={"name": "ant", "params": {"gamma": 0.02}},
...     demand={"name": "uniform", "params": {"n": 2000, "k": 4}},
...     feedback={"name": "calibrated_sigmoid", "params": {"gamma_star": 0.02}},
...     rounds=4000, seed=0,
... )
>>> result = run_scenario(spec, burn_in=2000)
>>> result.metrics.closeness(0.02, spec.initial_demand().total) < 5.0
True

The classic imperative API remains available (and is what the spec
layer builds): construct ``AntAlgorithm`` / ``SigmoidFeedback`` /
``Simulator`` directly when you need non-serializable components.

Scenario
--------
Specs round-trip through JSON (``spec.to_json()`` /
``ScenarioSpec.from_json``), so whole experiments live in config files
and run from the command line::

    repro-experiments scenario run examples/scenarios/quickstart.json

Multi-trial statistics and parameter sweeps route through the trial
runner with picklable spec-based factories, so ``run_scenario(spec,
trials=16, parallel=8)`` farms trials to worker processes for *any*
registered configuration — with statistics bit-identical to the serial
path.  Components are pluggable: ``register_algorithm``,
``register_feedback``, ``register_demand``, ``register_population`` and
``repro.scenario.register_engine`` add new names; every registry lists
its known names in its error messages.

Layout
------
``repro.env``         demands / noise models / critical value (substrates)
``repro.core``        the paper's algorithms (Ant, Precise Sigmoid,
                      Precise Adversarial, trivial baseline)
``repro.sim``         simulation engines, metrics, multi-trial runner
``repro.scenario``    declarative specs, registries, ``run_scenario``
``repro.store``       disk-backed result store: resumable sweeps,
                      grids and served points
``repro.automaton``   finite-state-machine substrate (Assumption 2.2,
                      Theorem 3.3 memory-bounded algorithm family)
``repro.analysis``    statistics, oscillation detection, theorem bounds
``repro.baselines``   the noise-free algorithm of Cornejo et al. [11]
``repro.experiments`` harness regenerating every figure/theorem claim
"""

from repro._version import __version__
from repro.types import IDLE, Feedback, NoiseKind, loads_from_assignment, idle_count
from repro.exceptions import (
    ReproError,
    ConfigurationError,
    AssumptionViolation,
    SimulationError,
    SweepInterrupted,
    AnalysisError,
)
from repro.store import ResultStore
from repro.env import (
    make_feedback,
    make_demand,
    make_population,
    available_feedbacks,
    available_demands,
    available_populations,
    register_feedback,
    register_demand,
    register_population,
    DemandVector,
    DemandSchedule,
    StaticDemandSchedule,
    StepDemandSchedule,
    PeriodicDemandSchedule,
    uniform_demands,
    proportional_demands,
    PopulationSchedule,
    StaticPopulation,
    StepPopulation,
    critical_value_sigmoid,
    lambda_for_critical_value,
    grey_zone,
    GreyZone,
    FeedbackModel,
    SigmoidFeedback,
    AdversarialFeedback,
    ExactBinaryFeedback,
    CorrelatedSigmoidFeedback,
    make_adversary,
)
from repro.core import (
    ColonyAlgorithm,
    InitialAssignment,
    AlgorithmConstants,
    DEFAULT_CONSTANTS,
    AntAlgorithm,
    OneSampleAntAlgorithm,
    ScoutAntAlgorithm,
    PreciseSigmoidAlgorithm,
    PreciseAdversarialAlgorithm,
    TrivialAlgorithm,
    make_algorithm,
    available_algorithms,
    register_algorithm,
    unregister_algorithm,
)
from repro.scenario import (
    AlgorithmSpec,
    FeedbackSpec,
    DemandSpec,
    PopulationSpec,
    EngineSpec,
    ScenarioSpec,
    ScenarioFactory,
    run_scenario,
    sweep_scenario,
    available_engines,
)
from repro.sim import (
    Simulator,
    CountingSimulator,
    SequentialSimulator,
    SimulationResult,
    RegretTracker,
    RunMetrics,
    Trace,
    run_trials,
    TrialSummary,
    SweepResult,
)

__all__ = [
    "__version__",
    # types / errors
    "IDLE",
    "Feedback",
    "NoiseKind",
    "loads_from_assignment",
    "idle_count",
    "ReproError",
    "ConfigurationError",
    "AssumptionViolation",
    "SimulationError",
    "SweepInterrupted",
    "AnalysisError",
    # store
    "ResultStore",
    # env
    "DemandVector",
    "DemandSchedule",
    "StaticDemandSchedule",
    "StepDemandSchedule",
    "PeriodicDemandSchedule",
    "uniform_demands",
    "proportional_demands",
    "PopulationSchedule",
    "StaticPopulation",
    "StepPopulation",
    "critical_value_sigmoid",
    "lambda_for_critical_value",
    "grey_zone",
    "GreyZone",
    "FeedbackModel",
    "SigmoidFeedback",
    "AdversarialFeedback",
    "ExactBinaryFeedback",
    "CorrelatedSigmoidFeedback",
    "make_adversary",
    "make_feedback",
    "make_demand",
    "make_population",
    "available_feedbacks",
    "available_demands",
    "available_populations",
    "register_feedback",
    "register_demand",
    "register_population",
    # core
    "ColonyAlgorithm",
    "InitialAssignment",
    "AlgorithmConstants",
    "DEFAULT_CONSTANTS",
    "AntAlgorithm",
    "OneSampleAntAlgorithm",
    "ScoutAntAlgorithm",
    "PreciseSigmoidAlgorithm",
    "PreciseAdversarialAlgorithm",
    "TrivialAlgorithm",
    "make_algorithm",
    "available_algorithms",
    "register_algorithm",
    "unregister_algorithm",
    # scenario
    "AlgorithmSpec",
    "FeedbackSpec",
    "DemandSpec",
    "PopulationSpec",
    "EngineSpec",
    "ScenarioSpec",
    "ScenarioFactory",
    "run_scenario",
    "sweep_scenario",
    "available_engines",
    # sim
    "Simulator",
    "CountingSimulator",
    "SequentialSimulator",
    "SimulationResult",
    "RegretTracker",
    "RunMetrics",
    "Trace",
    "run_trials",
    "TrialSummary",
    "SweepResult",
]
