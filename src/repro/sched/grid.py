"""Multi-parameter sweep grids as resumable frontier sets.

``sweep_scenario`` sweeps one dotted parameter over a list of values; a
:class:`GridSpec` generalizes that to the cross product of several axes
(``algorithm.gamma`` x ``feedback.lam`` x ...).  Every grid point is a
:class:`~repro.scenario.PointJob`, the same unit a sweep point is:

* a **derived spec** — the base :class:`~repro.scenario.ScenarioSpec`
  with each axis value applied via ``with_param``;
* a **digest** — :func:`repro.scenario.sweep_point_digest` over the
  derived spec, the coordinate, the horizon/trials/run-params, and the
  point seed.  Single-axis grids produce digests *identical* to classic
  store-backed ``sweep_scenario`` points, so stores populated by one
  are resumable by the other;
* a **seed root** — :func:`repro.scenario.sweep_point_seed`, a pure
  function of the point's own identity, so adding an axis value never
  reshuffles the seeds (and records) of existing points.

Because every point is content-addressed, a grid is not a work *list*
but a work *frontier set*: any number of workers can look at the same
store, see which digests are committed, and lease the rest — the basis
of :mod:`repro.sched.worker`.  The grid itself is plain JSON data
(:meth:`GridSpec.to_json`), persisted into the store so workers on
other processes or machines reconstruct it without any channel beyond
the shared filesystem.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.exceptions import ConfigurationError
from repro.scenario.runner import PointJob
from repro.scenario.spec import ScenarioSpec
from repro.store import STORE_FORMAT, canonical_json, digest_hex
from repro.util.validation import check_integer

__all__ = ["GridAxis", "GridSpec"]


def _canonical_values(parameter: str, values: Any) -> tuple[Any, ...]:
    values = list(values) if not isinstance(values, (str, bytes)) else None
    if values is None or not values:
        raise ConfigurationError(
            f"grid axis {parameter!r} needs a non-empty list of values"
        )
    try:
        # canonical_json (not bare json.dumps) so the normalized values
        # are exactly what the digest layer will see — RPR003.
        return tuple(json.loads(canonical_json(values)))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"grid axis {parameter!r} values must be JSON-serializable "
            f"(plain numbers / strings / lists, no NaN): {exc}"
        ) from exc


@dataclass(frozen=True)
class GridAxis:
    """One swept dimension: a dotted component param and its values."""

    parameter: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.parameter, str) or "." not in self.parameter:
            raise ConfigurationError(
                f"grid axes sweep component params like 'algorithm.gamma'; "
                f"got {self.parameter!r} (top-level fields are fixed per grid "
                "— the scheduler supplies rounds and per-point seeds)"
            )
        object.__setattr__(self, "values", _canonical_values(self.parameter, self.values))

    def to_dict(self) -> dict[str, Any]:
        return {"parameter": self.parameter, "values": list(self.values)}

    @classmethod
    def from_dict(cls, data: "Mapping[str, Any] | GridAxis") -> "GridAxis":
        if isinstance(data, cls):
            return data
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"grid axis must be a dict or GridAxis, got {type(data).__name__}"
            )
        unknown = set(data) - {"parameter", "values"}
        if unknown:
            raise ConfigurationError(f"unknown grid axis keys {sorted(unknown)}")
        return cls(parameter=data.get("parameter"), values=data.get("values", ()))


@dataclass(frozen=True)
class GridSpec:
    """A cross-product sweep over a base scenario, as plain data.

    Parameters
    ----------
    spec:
        The base scenario (its ``seed`` is the grid's root seed).
    axes:
        Swept dimensions (``GridAxis`` instances or plain dicts); points
        enumerate the cross product in row-major order, last axis
        fastest.
    rounds:
        Horizon per point; defaults to ``spec.rounds``.
    trials:
        Trials per point.
    run_overrides:
        Extra ``run()`` kwargs merged over ``spec.run_params`` (exactly
        like ``sweep_scenario``'s keyword overrides).
    """

    spec: ScenarioSpec
    axes: tuple[GridAxis, ...]
    rounds: int | None = None
    trials: int = 5
    run_overrides: dict[str, Any] = field(default_factory=dict)
    _points: tuple[PointJob, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.spec, Mapping):
            object.__setattr__(self, "spec", ScenarioSpec.from_dict(dict(self.spec)))
        if not isinstance(self.spec, ScenarioSpec):
            raise ConfigurationError(
                f"grid spec must be a ScenarioSpec or dict, got {type(self.spec).__name__}"
            )
        axes = tuple(GridAxis.from_dict(axis) for axis in self.axes)
        if not axes:
            raise ConfigurationError("a grid needs at least one axis")
        parameters = [axis.parameter for axis in axes]
        if len(set(parameters)) != len(parameters):
            raise ConfigurationError(f"duplicate grid axis parameters in {parameters}")
        object.__setattr__(self, "axes", axes)
        rounds = self.spec.rounds if self.rounds is None else self.rounds
        object.__setattr__(self, "rounds", check_integer("rounds", rounds, minimum=1))
        object.__setattr__(self, "trials", check_integer("trials", self.trials, minimum=1))
        try:
            run_overrides = json.loads(canonical_json(dict(self.run_overrides)))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"run_overrides must be JSON-serializable: {exc}") from exc
        object.__setattr__(self, "run_overrides", run_overrides)
        burn_in = self.run_params.get("burn_in")
        if burn_in is not None and burn_in >= self.rounds:
            # The same check ScenarioSpec makes against its own rounds;
            # a grid overriding the horizon must re-make it here so a
            # misconfigured grid fails at construction, not inside N
            # worker processes.
            raise ConfigurationError(
                f"run_params burn_in={burn_in} must be < rounds={self.rounds}"
            )
        # Validate every coordinate eagerly (a typo'd axis value must
        # fail at grid construction, not in some worker process) and
        # memoize the points — identity work is pure function of self.
        object.__setattr__(self, "_points", self._make_points())

    # ------------------------------------------------------------------
    @property
    def parameters(self) -> list[str]:
        return [axis.parameter for axis in self.axes]

    @property
    def run_params(self) -> dict[str, Any]:
        """The merged run kwargs every point executes with."""
        return {**self.spec.run_params, **self.run_overrides}

    @property
    def n_points(self) -> int:
        n = 1
        for axis in self.axes:
            n *= len(axis.values)
        return n

    def _make_points(self) -> tuple[PointJob, ...]:
        assert self.rounds is not None  # resolved in __post_init__
        parameters = self.parameters
        run_params = self.run_params
        return tuple(
            PointJob(self.spec, tuple(zip(parameters, combo)), self.rounds, self.trials, run_params)
            for combo in itertools.product(*(axis.values for axis in self.axes))
        )

    def points(self) -> tuple[PointJob, ...]:
        """Every grid point's job, in canonical (row-major) order."""
        return self._points

    # ------------------------------------------------------------------
    def grid_digest(self) -> str:
        """Content digest identifying this grid (its directory name)."""
        return digest_hex(
            {
                "format": STORE_FORMAT,
                "kind": "sweep_grid",
                "spec": self.spec.to_dict(),
                "axes": [axis.to_dict() for axis in self.axes],
                "rounds": self.rounds,
                "trials": self.trials,
                "run_overrides": self.run_overrides,
            }
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "axes": [axis.to_dict() for axis in self.axes],
            "rounds": self.rounds,
            "trials": self.trials,
            "run_overrides": json.loads(canonical_json(self.run_overrides)),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "GridSpec":
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"grid spec must be a dict, got {type(data).__name__}")
        known = {"spec", "axes", "rounds", "trials", "run_overrides"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown grid spec keys {sorted(unknown)}; known: {sorted(known)}"
            )
        for required in ("spec", "axes"):
            if data.get(required) is None:
                raise ConfigurationError(f"grid spec needs {required!r}")
        kwargs = {k: v for k, v in data.items() if v is not None or k == "rounds"}
        return cls(**kwargs)

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GridSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid grid JSON: {exc}") from exc
        return cls.from_dict(data)
