"""Engine registry: simulation engines constructible by name.

Each engine builder receives the already-built components (algorithm,
demand, feedback, optional population schedule) plus the run seed and
the engine-specific options from :class:`~repro.scenario.spec.EngineSpec`
params.  Four engines ship with the library:

* ``agent`` — :class:`~repro.sim.engine.Simulator`, the exact per-ant
  synchronous engine (any algorithm / feedback);
* ``counting`` — :class:`~repro.sim.counting.CountingSimulator`, the
  O(k)-per-round load-level engine (Ant / trivial / precise sigmoid
  under i.i.d. noise; the only engine supporting dynamic populations).
  Its ``join_strategy`` param is validated and otherwise inert: only
  ``"exact"`` (one multinomial over the join kernel) is accepted, so
  specs that name it keep their digests;
* ``counting_batched`` — the ``counting`` engine under an older name,
  kept so existing specs keep their digests.  Its ``batch`` and
  ``backend`` params are validated and otherwise inert: the trial
  runner alone decides how many lanes a chunk holds;
* ``sequential`` — :class:`~repro.sim.sequential.SequentialSimulator`,
  the Appendix D.1 one-ant-per-round scheduler.
"""

from __future__ import annotations

import numpy as np

from repro.env.population import PopulationSchedule
from repro.exceptions import ConfigurationError
from repro.sim.batched import DEFAULT_BATCH
from repro.sim.counting import CountingSimulator
from repro.sim.engine import Simulator
from repro.sim.sequential import SequentialSimulator
from repro.util.registry import Registry
from repro.util.validation import check_integer

__all__ = [
    "ENGINES",
    "make_engine",
    "available_engines",
    "register_engine",
    "unregister_engine",
    "POPULATION_AWARE_ENGINES",
]

ENGINES = Registry("engine")

#: Engine names that accept a population schedule (colony-size dynamics).
#: Extended by ``register_engine(..., population_aware=True)``.
POPULATION_AWARE_ENGINES: set[str] = {"counting", "counting_batched"}


def _require_no_population(engine: str, population: PopulationSchedule | None) -> None:
    if population is not None:
        raise ConfigurationError(
            f"the {engine!r} engine does not support population schedules "
            "(only the counting engine tracks colony-size dynamics)"
        )


def _build_agent(
    algorithm,
    demand,
    feedback,
    *,
    seed=None,
    population=None,
    initial_assignment: str | list[int] = "all_idle",
    check_invariants_every: int = 0,
) -> Simulator:
    _require_no_population("agent", population)
    if isinstance(initial_assignment, list):
        # A spec holds an explicit assignment as a JSON list.
        initial_assignment = np.asarray(initial_assignment, dtype=np.int64)
    return Simulator(
        algorithm,
        demand,
        feedback,
        initial_assignment=initial_assignment,
        seed=seed,
        check_invariants_every=check_invariants_every,
    )


def _build_counting(
    algorithm,
    demand,
    feedback,
    *,
    seed=None,
    population=None,
    initial_loads=None,
    join_strategy: str = "exact",
    pi_cache: bool = True,
) -> CountingSimulator:
    # No task-count cap here: the loop-free quadrature join kernel plus
    # the process's join-distribution store make counting scenarios with
    # k in the thousands declarable and runnable (the old subset
    # enumerator's k <= 14 cliff survives only as a test oracle).
    # ``join_strategy`` survives for the digests of existing specs.
    if join_strategy != "exact":
        raise ConfigurationError(
            f"unknown join_strategy {join_strategy!r}; the counting engine draws "
            "joins 'exact' only"
        )
    if initial_loads is not None:
        initial_loads = np.asarray(initial_loads, dtype=np.int64)
    return CountingSimulator(
        algorithm,
        demand,
        feedback,
        initial_loads=initial_loads,
        seed=seed,
        population=population,
        pi_cache=pi_cache,
    )


def _build_counting_batched(
    algorithm,
    demand,
    feedback,
    *,
    seed=None,
    population=None,
    initial_loads=None,
    join_strategy: str = "exact",
    pi_cache: bool = True,
    batch: int = DEFAULT_BATCH,
    backend: str = "numpy",
) -> CountingSimulator:
    # ``batch`` and ``backend`` survive for the digests of existing specs:
    # both are validated, neither changes the build (``run_trials`` picks
    # the lane count, and numpy is the only backend).
    check_integer("batch", batch, minimum=1)
    if backend != "numpy":
        raise ConfigurationError(
            f"unknown array backend {backend!r}; the counting engine runs on 'numpy' only"
        )
    return _build_counting(
        algorithm,
        demand,
        feedback,
        seed=seed,
        population=population,
        initial_loads=initial_loads,
        join_strategy=join_strategy,
        pi_cache=pi_cache,
    )


def _build_sequential(
    algorithm,
    demand,
    feedback,
    *,
    seed=None,
    population=None,
    initial_assignment: str = "all_idle",
) -> SequentialSimulator:
    _require_no_population("sequential", population)
    return SequentialSimulator(
        algorithm,
        demand,
        feedback,
        initial_assignment=initial_assignment,
        seed=seed,
    )


# ``example=`` lists each engine's spec-level params (what EngineSpec
# params may carry) — the components and seed are injected at build time.
# Kept honest by the RPR006 registry-consistency lint check.
ENGINES.register("agent", _build_agent, example={"initial_assignment": "all_idle"})
ENGINES.register("counting", _build_counting, example={"pi_cache": True})
ENGINES.register(
    "counting_batched",
    _build_counting_batched,
    example={"pi_cache": True, "batch": 16, "backend": "numpy"},
)
ENGINES.register("sequential", _build_sequential, example={"initial_assignment": "all_idle"})


def make_engine(name: str, **kwargs):
    """Build a registered engine (see the engine builders for kwargs)."""
    return ENGINES.make(name, **kwargs)


def available_engines() -> list[str]:
    return ENGINES.names()


def register_engine(
    name: str,
    factory,
    *,
    allow_overwrite: bool = False,
    population_aware: bool = False,
    example=None,
) -> None:
    """Register a custom engine builder.

    The builder is called as ``factory(algorithm, demand, feedback, *,
    seed, population, **engine_params)`` and must return an object with
    a ``run(rounds, **run_kwargs)`` method.  Pass ``population_aware=True``
    when the builder actually consumes a population schedule; otherwise
    specs pairing it with a population are rejected at construction.
    ``example`` (representative JSON-safe engine params) is optional for
    plugins but required by the RPR006 lint check for built-ins.
    """
    ENGINES.register(name, factory, allow_overwrite=allow_overwrite, example=example)
    if population_aware:
        POPULATION_AWARE_ENGINES.add(name)
    else:
        POPULATION_AWARE_ENGINES.discard(name)


def unregister_engine(name: str) -> None:
    """Remove a registered engine (e.g. to undo a test-local plugin)."""
    ENGINES.unregister(name)
    POPULATION_AWARE_ENGINES.discard(name)
