"""The service request protocol: one ``POST /scenarios`` body, normalized.

A :class:`ScenarioRequest` is the unit the scenario service dedups on.
It carries a full :class:`~repro.scenario.ScenarioSpec`, an optional set
of dotted parameter overrides (``{"algorithm.gamma": 0.03}``), and the
run shape (``rounds`` / ``trials`` / ``run_params`` overrides).  Its
identity — :meth:`ScenarioRequest.digest` — is **exactly** the
sweep-point digest the batch paths already use
(:func:`repro.scenario.sweep_point_digest`), and its seed root is the
same :func:`repro.scenario.sweep_point_seed`:

* a request overriding one parameter digests identically to the
  corresponding ``sweep_scenario(store=...)`` point, so a store seeded
  by a sweep serves the request as a cache hit — and a record computed
  by the service resumes the sweep ``[cached]``;
* a request overriding several parameters digests identically to the
  matching :class:`repro.sched.GridSpec` point whose axes are sorted by
  parameter name (requests canonicalize overrides in sorted order);
* a request with **no** overrides is keyed with the empty coordinate
  ``("", None)`` — impossible for real sweeps (axis parameters must be
  dotted paths), so bare-spec requests can never alias a sweep point.

A request builds its :class:`~repro.scenario.PointJob` once, on
construction — the job the service computes, commits and reads back,
and the same one a sweep or a grid worker runs for the point.
Everything here is pure data + digest computation: the module performs
no I/O, so request identity can be computed (and unit-tested) without a
store or a server.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ConfigurationError
from repro.scenario.runner import PointJob
from repro.scenario.spec import ScenarioSpec
from repro.store import canonical_json
from repro.util.validation import check_integer

__all__ = ["ScenarioRequest"]


def _canonical_mapping(name: str, data: Any) -> dict[str, Any]:
    """``data`` as a canonical-JSON-round-tripped plain dict."""
    if data is None:
        return {}
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{name} must be a mapping, got {type(data).__name__}")
    try:
        normalized = json.loads(canonical_json(dict(data)))
    except ConfigurationError as exc:
        raise ConfigurationError(f"request {name} must be canonical-JSON data: {exc}") from exc
    assert isinstance(normalized, dict)
    return normalized


@dataclass(frozen=True)
class ScenarioRequest:
    """One deduplicatable unit of service work, as plain data.

    Parameters
    ----------
    spec:
        The base scenario (its ``seed`` is the request's seed root,
        exactly as in store-backed sweeps).
    params:
        Dotted component-parameter overrides applied via
        ``spec.with_param`` — the request's *coordinate*.  Overrides are
        canonicalized in sorted parameter order, so two JSON bodies
        listing them differently are the same request.
    rounds:
        Horizon; defaults to ``spec.rounds``.
    trials:
        Independent trials aggregated into the record.
    run_params:
        Extra ``run()`` kwargs merged over ``spec.run_params`` (the same
        merge ``sweep_scenario`` applies to keyword overrides).

    The request's :class:`~repro.scenario.PointJob`, built once on
    construction, is its ``job``.
    """

    spec: ScenarioSpec
    params: dict[str, Any] = field(default_factory=dict)
    rounds: int | None = None
    trials: int = 1
    run_params: dict[str, Any] = field(default_factory=dict)
    job: PointJob = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.spec, Mapping):
            object.__setattr__(self, "spec", ScenarioSpec.from_dict(dict(self.spec)))
        if not isinstance(self.spec, ScenarioSpec):
            raise ConfigurationError(
                f"request spec must be a ScenarioSpec or dict, got {type(self.spec).__name__}"
            )
        params = _canonical_mapping("params", self.params)
        for path in params:
            if "." not in path:
                raise ConfigurationError(
                    f"request params override component params like "
                    f"'algorithm.gamma'; got {path!r} (top-level spec fields "
                    "belong in the spec itself)"
                )
        # Sorted order is the canonical coordinate order (dicts preserve
        # insertion order, so sort once here and identity follows).
        object.__setattr__(self, "params", {k: params[k] for k in sorted(params)})
        rounds = check_integer(
            "rounds", self.spec.rounds if self.rounds is None else self.rounds, minimum=1
        )
        object.__setattr__(self, "rounds", rounds)
        object.__setattr__(self, "trials", check_integer("trials", self.trials, minimum=1))
        object.__setattr__(self, "run_params", _canonical_mapping("run_params", self.run_params))
        job = PointJob(
            self.spec,
            tuple(self.params.items()),
            rounds,
            self.trials,
            {**self.spec.run_params, **self.run_params},
        )
        object.__setattr__(self, "job", job)

    # ------------------------------------------------------------------
    # Wire format

    _KNOWN_KEYS = frozenset({"spec", "params", "rounds", "trials", "run_params"})

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioRequest":
        """Parse one ``POST /scenarios`` body; raises ConfigurationError."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"request body must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - cls._KNOWN_KEYS
        if unknown:
            raise ConfigurationError(
                f"unknown request keys {sorted(unknown)}; known: {sorted(cls._KNOWN_KEYS)}"
            )
        if data.get("spec") is None:
            raise ConfigurationError("request needs a 'spec' (a ScenarioSpec JSON object)")
        kwargs = {key: value for key, value in data.items() if value is not None or key == "rounds"}
        return cls(**kwargs)

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "params": dict(self.params),
            "rounds": self.rounds,
            "trials": self.trials,
            "run_params": dict(self.run_params),
        }

    # ------------------------------------------------------------------
    # Identity (the dedup key) — the job's sweep-point digest

    def digest(self) -> str:
        """The content digest this request dedups on (the store key)."""
        return self.job.digest
