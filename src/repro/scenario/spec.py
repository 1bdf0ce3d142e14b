"""Declarative scenario specs: every simulation as serializable data.

A :class:`ScenarioSpec` is a frozen, JSON-round-trippable description of
one complete simulation: which algorithm, which feedback model, which
demand (vector or schedule), which engine, optional colony-size
dynamics, the seed and the default horizon.  Component choices are
``(name, params)`` pairs resolved against the shared registries, so a
spec is

* **validated on construction** — unknown component names and
  non-JSON-serializable params fail immediately with the list of known
  names;
* **serializable** — ``to_dict()/from_dict()/to_json()/from_json()``
  round-trip to an equal spec;
* **picklable** — specs contain only plain data, so spec-based factories
  can be shipped to ``ProcessPoolExecutor`` workers for parallel trials.

Construction accepts plain dicts wherever a component spec is expected,
so ``ScenarioSpec.from_dict(json.load(f))`` and hand-written literals
both work::

    spec = ScenarioSpec(
        algorithm={"name": "ant", "params": {"gamma": 0.025}},
        demand={"name": "uniform", "params": {"n": 4000, "k": 4}},
        feedback={"name": "calibrated_sigmoid", "params": {"gamma_star": 0.01}},
        engine={"name": "counting"},
        rounds=10_000,
        seed=42,
    )
    sim = spec.build()          # ready-to-run simulator
    result = sim.run(spec.rounds)
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.core.registry import ALGORITHMS
from repro.env.demands import DemandSchedule, DemandVector
from repro.env.registry import DEMANDS, FEEDBACKS, POPULATIONS
from repro.exceptions import ConfigurationError
from repro.scenario.engines import ENGINES, POPULATION_AWARE_ENGINES
from repro.util.registry import Registry
from repro.util.validation import check_integer

__all__ = [
    "AlgorithmSpec",
    "FeedbackSpec",
    "DemandSpec",
    "PopulationSpec",
    "EngineSpec",
    "ScenarioSpec",
]


def _normalize_params(kind: str, params: Any) -> dict[str, Any]:
    """Validate and canonicalize a component's params to plain JSON data.

    The JSON round-trip canonicalizes containers (tuples become lists)
    so that ``from_json(to_json(spec)) == spec`` holds exactly.
    """
    if params is None:
        return {}
    if not isinstance(params, dict):
        raise ConfigurationError(
            f"{kind} params must be a dict of keyword arguments, "
            f"got {type(params).__name__}"
        )
    for key in params:
        if not isinstance(key, str) or not key:
            raise ConfigurationError(f"{kind} param names must be strings, got {key!r}")
    try:
        return json.loads(json.dumps(params))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"{kind} params must be JSON-serializable "
            f"(plain numbers / strings / lists / dicts): {exc}"
        ) from exc


@functools.lru_cache(maxsize=None)
def _factory_params(factory: Any) -> tuple[frozenset[str], bool] | None:
    """``(keyword parameter names, takes **kwargs)`` of ``factory``.

    ``None`` when the signature cannot be introspected (some builtins).
    Cached per factory object: specs are rebuilt on every sweep
    re-render and every served request, and ``inspect.signature`` costs
    more than everything else spec construction does.
    """
    try:
        parameters = inspect.signature(factory).parameters.values()
    except (TypeError, ValueError):
        return None
    names = frozenset(
        p.name
        for p in parameters
        if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    )
    return names, any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters)


def _accepts_param(factory: Any, name: str) -> bool:
    """True when ``factory`` declares an explicit parameter ``name``."""
    params = _factory_params(factory)
    return params is not None and name in params[0]


@dataclass(frozen=True)
class ComponentSpec:
    """Base for ``(name, params)`` component choices.

    Subclasses bind a registry (class attribute ``registry``) and a
    human-readable ``kind``; the name is validated against the registry
    at construction time so typos fail early with the available names,
    and so are the param names, against the factory's keyword parameters
    (factories taking ``**kwargs`` accept any name).
    """

    name: str
    params: dict[str, Any] = field(default_factory=dict)

    kind: ClassVar[str] = "component"
    registry: ClassVar[Registry]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(f"{self.kind} name must be a non-empty string")
        accepted = _factory_params(self.registry.get(self.name))
        params = _normalize_params(self.kind, self.params)
        if accepted is not None and not accepted[1]:
            unknown = sorted(set(params) - accepted[0])
            if unknown:
                raise ConfigurationError(
                    f"unknown {self.kind} params {unknown} for {self.name!r}; "
                    f"accepted: {sorted(accepted[0])}"
                )
        object.__setattr__(self, "params", params)

    # ------------------------------------------------------------------
    def build(self, **extra: Any) -> Any:
        """Instantiate the component; ``extra`` kwargs override params."""
        return self.registry.make(self.name, **{**self.params, **extra})

    def with_params(self, **updates: Any) -> "ComponentSpec":
        """A copy with ``updates`` merged into (and revalidated with) params."""
        return dataclasses.replace(self, params={**self.params, **updates})

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "params": json.loads(json.dumps(self.params))}

    @classmethod
    def from_dict(cls, data: "dict | ComponentSpec") -> "ComponentSpec":
        if isinstance(data, cls):
            return data
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"{cls.kind} spec must be a dict or {cls.__name__}, "
                f"got {type(data).__name__}"
            )
        unknown = set(data) - {"name", "params"}
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.kind} spec keys {sorted(unknown)}; "
                "expected 'name' and optional 'params'"
            )
        if "name" not in data:
            raise ConfigurationError(f"{cls.kind} spec needs a 'name'")
        return cls(name=data["name"], params=data.get("params", {}))


@dataclass(frozen=True)
class AlgorithmSpec(ComponentSpec):
    """Which colony algorithm to run (``repro.core`` registry)."""

    kind: ClassVar[str] = "algorithm"
    registry: ClassVar[Registry] = ALGORITHMS


@dataclass(frozen=True)
class FeedbackSpec(ComponentSpec):
    """Which noise model produces the ants' signals (``repro.env``)."""

    kind: ClassVar[str] = "feedback"
    registry: ClassVar[Registry] = FEEDBACKS

    def build(self, **extra: Any) -> Any:
        """Instantiate the model, injecting scenario context the factory
        declares it wants: ``demand`` for demand-aware factories
        (``calibrated_sigmoid``, ``threshold``) and the task count ``k``
        for k-aware ones (``sigmoid`` validates per-task ``lam`` vectors
        against it at build time)."""
        kwargs = {**self.params, **extra}
        factory = self.registry.get(self.name)
        demand = kwargs.get("demand")
        if demand is not None and "k" not in kwargs and _accepts_param(factory, "k"):
            kwargs["k"] = demand.k
        if "demand" in kwargs and not _accepts_param(factory, "demand"):
            kwargs.pop("demand")
        return self.registry.make(self.name, **kwargs)


@dataclass(frozen=True)
class DemandSpec(ComponentSpec):
    """Which demand vector or dynamic demand schedule to serve."""

    kind: ClassVar[str] = "demand"
    registry: ClassVar[Registry] = DEMANDS


@dataclass(frozen=True)
class PopulationSpec(ComponentSpec):
    """Colony-size dynamics (counting engine only)."""

    kind: ClassVar[str] = "population"
    registry: ClassVar[Registry] = POPULATIONS


@dataclass(frozen=True)
class EngineSpec(ComponentSpec):
    """Which simulation engine executes the scenario."""

    kind: ClassVar[str] = "engine"
    registry: ClassVar[Registry] = ENGINES


# ----------------------------------------------------------------------


#: ScenarioSpec fields holding a component spec, with their spec class.
_COMPONENT_FIELDS: dict[str, type[ComponentSpec]] = {
    "algorithm": AlgorithmSpec,
    "demand": DemandSpec,
    "feedback": FeedbackSpec,
    "engine": EngineSpec,
    "population": PopulationSpec,
}

#: Top-level scalar fields that ``with_param`` may override directly.
_SCALAR_FIELDS = frozenset({"seed", "rounds", "gamma_star", "label"})


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete simulation as declarative, serializable data.

    Parameters
    ----------
    algorithm, demand, feedback:
        Component choices (spec objects or plain ``{"name", "params"}``
        dicts).
    engine:
        Execution engine; defaults to the exact agent-level engine.
    population:
        Optional colony-size schedule; requires a population-aware
        engine (currently ``counting``).
    seed:
        Root seed: the single-run seed and the root for per-trial seed
        derivation in multi-trial runs.
    rounds:
        Default horizon; ``run_scenario`` may override per call.
    run_params:
        Extra kwargs forwarded to the engine's ``run`` (``burn_in``,
        ``trace_stride``, ``tail_window``).
    gamma_star:
        Critical value used for closeness statistics in trial summaries.
    label:
        Human-readable tag; defaults to ``"<algorithm>@<engine>"``.
    """

    algorithm: AlgorithmSpec
    demand: DemandSpec
    feedback: FeedbackSpec
    engine: EngineSpec = field(default_factory=lambda: EngineSpec("agent"))
    population: PopulationSpec | None = None
    seed: int = 0
    rounds: int = 1000
    run_params: dict[str, Any] = field(default_factory=dict)
    gamma_star: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        for name, spec_cls in _COMPONENT_FIELDS.items():
            value = getattr(self, name)
            if name == "population" and value is None:
                continue
            object.__setattr__(self, name, spec_cls.from_dict(value))
        object.__setattr__(self, "rounds", check_integer("rounds", self.rounds, minimum=1))
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigurationError(
                f"seed must be a non-negative int (numpy SeedSequence rejects "
                f"negatives), got {self.seed!r}"
            )
        object.__setattr__(
            self, "run_params", _normalize_params("run_params", self.run_params)
        )
        burn_in = self.run_params.get("burn_in")
        if burn_in is not None:
            burn_in = check_integer("run_params burn_in", burn_in, minimum=0)
            if burn_in >= self.rounds:
                raise ConfigurationError(
                    f"run_params burn_in={burn_in} must be < rounds={self.rounds}; "
                    "such a run would exclude every round from its metrics"
                )
        if self.gamma_star is not None:
            if not isinstance(self.gamma_star, (int, float)) or not 0.0 < self.gamma_star < 1.0:
                raise ConfigurationError(
                    f"gamma_star must lie in (0, 1), got {self.gamma_star!r}"
                )
            object.__setattr__(self, "gamma_star", float(self.gamma_star))
        if not isinstance(self.label, str):
            raise ConfigurationError(f"label must be a string, got {self.label!r}")
        if self.population is not None and self.engine.name not in POPULATION_AWARE_ENGINES:
            raise ConfigurationError(
                f"population schedules require a population-aware engine "
                f"({sorted(POPULATION_AWARE_ENGINES)}); got engine {self.engine.name!r}"
            )

    # ------------------------------------------------------------------
    # Construction of the live objects

    def build_demand(self) -> DemandVector | DemandSchedule:
        """The demand vector / schedule this scenario serves."""
        return self.demand.build()

    def initial_demand(self) -> DemandVector:
        """The demand vector in force at round 0 (for calibration)."""
        demand = self.build_demand()
        if isinstance(demand, DemandVector):
            return demand
        return demand.demands_at(0)

    def build(self, *, seed: int | None = None, shared_pi_cache: Any = None) -> Any:
        """Construct the ready-to-run simulator for this scenario.

        ``seed`` overrides the spec's seed (used for per-trial seeds).
        ``shared_pi_cache`` is runtime context, not spec data: a live
        :class:`~repro.sim.pi_cache.SharedPiCache` threaded in by
        ``run_scenario``/``sweep_scenario`` so counting-engine trials
        can share join-distribution work.  Passing one requires an
        engine whose builder declares the ``shared_pi_cache`` parameter.
        """
        demand = self.build_demand()
        d0 = demand if isinstance(demand, DemandVector) else demand.demands_at(0)
        extra: dict[str, Any] = {}
        if shared_pi_cache is not None:
            if not _accepts_param(self.engine.registry.get(self.engine.name), "shared_pi_cache"):
                raise ConfigurationError(
                    f"engine {self.engine.name!r} does not accept a shared pi "
                    "cache (its builder declares no 'shared_pi_cache' "
                    "parameter); use the counting engine or drop the cache"
                )
            extra["shared_pi_cache"] = shared_pi_cache
        return self.engine.build(
            algorithm=self.algorithm.build(),
            demand=demand,
            feedback=self.feedback.build(demand=d0),
            population=self.population.build() if self.population is not None else None,
            seed=self.seed if seed is None else seed,
            **extra,
        )

    # ------------------------------------------------------------------
    # Derivation

    def describe(self) -> str:
        """The label, or a ``"<algorithm>@<engine>"`` default."""
        return self.label or f"{self.algorithm.name}@{self.engine.name}"

    def with_param(self, path: str, value: Any) -> "ScenarioSpec":
        """A copy with one parameter replaced, addressed by dotted path.

        ``"algorithm.gamma"`` updates a component param; a bare field
        name (``"rounds"``, ``"seed"``, ``"gamma_star"``, ``"label"``)
        updates the top-level field.  The copy is fully revalidated.
        """
        head, _, key = path.partition(".")
        if not key:
            if head not in _SCALAR_FIELDS:
                raise ConfigurationError(
                    f"cannot set {path!r}; top-level fields: {sorted(_SCALAR_FIELDS)}, "
                    f"component params: {sorted(_COMPONENT_FIELDS)} (as 'component.param')"
                )
            return dataclasses.replace(self, **{head: value})
        if head not in _COMPONENT_FIELDS:
            raise ConfigurationError(
                f"unknown component {head!r} in {path!r}; "
                f"known components: {sorted(_COMPONENT_FIELDS)}"
            )
        component = getattr(self, head)
        if component is None:
            raise ConfigurationError(
                f"cannot set {path!r}: the scenario has no {head} spec"
            )
        return dataclasses.replace(self, **{head: component.with_params(**{key: value})})

    # ------------------------------------------------------------------
    # Serialization

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form, suitable for JSON / YAML config files."""
        return {
            "algorithm": self.algorithm.to_dict(),
            "demand": self.demand.to_dict(),
            "feedback": self.feedback.to_dict(),
            "engine": self.engine.to_dict(),
            "population": None if self.population is None else self.population.to_dict(),
            "seed": self.seed,
            "rounds": self.rounds,
            "run_params": json.loads(json.dumps(self.run_params)),
            "gamma_star": self.gamma_star,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (strict on keys)."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"scenario spec must be a dict, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown scenario spec keys {sorted(unknown)}; known: {sorted(known)}"
            )
        for required in ("algorithm", "demand", "feedback"):
            if data.get(required) is None:
                raise ConfigurationError(f"scenario spec needs {required!r}")
        # Explicit nulls for optional fields mean "use the default"
        # (population and gamma_star legitimately default to None).
        kwargs = {
            k: v
            for k, v in data.items()
            if not (v is None and k in ("engine", "run_params", "label", "seed", "rounds"))
        }
        return cls(**kwargs)

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid scenario JSON: {exc}") from exc
        return cls.from_dict(data)
