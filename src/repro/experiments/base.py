"""Experiment infrastructure: results, claims, registry, sweep helpers.

An experiment regenerates one paper artifact (figure or theorem claim).
Its result carries:

* ``series`` — the numeric data that *is* the figure (printable as CSV),
* ``tables`` — formatted text tables,
* ``claims`` — measured-vs-theory comparisons with pass/fail verdicts,

so EXPERIMENTS.md rows can be produced mechanically and the benchmark
suite can assert the qualitative shape (every claim ``ok``).
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError
from repro.scenario import AlgorithmSpec, ScenarioSpec
from repro.store import ResultStore

__all__ = ["Claim", "ExperimentResult", "experiment", "get_experiment", "list_experiments"]


@dataclass(frozen=True)
class Claim:
    """One measured-vs-theory comparison.

    ``kind`` is ``"upper"`` (measured must not exceed bound), ``"lower"``
    (measured must be at least bound), or ``"shape"`` (a qualitative
    boolean established by the experiment code itself, e.g. "closeness is
    monotone in eps"; then ``measured``/``bound`` are informational).
    """

    label: str
    measured: float
    bound: float
    kind: str = "upper"
    ok: bool = True

    @staticmethod
    def upper(label: str, measured: float, bound: float) -> "Claim":
        return Claim(label, float(measured), float(bound), "upper", float(measured) <= float(bound))

    @staticmethod
    def lower(label: str, measured: float, bound: float) -> "Claim":
        return Claim(label, float(measured), float(bound), "lower", float(measured) >= float(bound))

    @staticmethod
    def shape(label: str, ok: bool, measured: float = 0.0, bound: float = 0.0) -> "Claim":
        return Claim(label, float(measured), float(bound), "shape", bool(ok))

    def render(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        if self.kind == "shape":
            return f"[{mark}] {self.label}"
        rel = f"{self.measured:.4g} vs {self.bound:.4g}"
        op = "<=" if self.kind == "upper" else ">="
        return f"[{mark}] {self.label}: measured {op} bound? {rel}"


@dataclass
class ExperimentResult:
    """Everything an experiment produced."""

    experiment_id: str
    title: str
    scale: str
    claims: list[Claim] = field(default_factory=list)
    tables: list[str] = field(default_factory=list)
    series: dict[str, np.ndarray] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    data: dict[str, Any] = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        """True when every claim's verdict is PASS."""
        return all(c.ok for c in self.claims)

    def report(self) -> str:
        """Full plain-text report of the experiment."""
        lines = [f"=== {self.experiment_id}: {self.title} (scale={self.scale}) ==="]
        for t in self.tables:
            lines.append(t)
            lines.append("")
        for name, arr in self.series.items():
            arr = np.asarray(arr)
            preview = np.array2string(arr, precision=4, threshold=24)
            lines.append(f"series {name}: {preview}")
        if self.notes:
            lines.append("")
            lines.extend(f"note: {n}" for n in self.notes)
        lines.append("")
        lines.extend(c.render() for c in self.claims)
        lines.append(f"overall: {'PASS' if self.all_ok else 'FAIL'}")
        return "\n".join(lines)


_REGISTRY: dict[str, tuple[str, Callable[..., ExperimentResult]]] = {}


def experiment(experiment_id: str, title: str):
    """Decorator registering an experiment function under its id."""

    def wrap(fn: Callable[..., ExperimentResult]):
        if experiment_id in _REGISTRY:
            raise ConfigurationError(f"experiment {experiment_id} already registered")
        _REGISTRY[experiment_id] = (title, fn)
        fn.experiment_id = experiment_id
        fn.title = title
        return fn

    return wrap


def list_experiments() -> list[tuple[str, str]]:
    """Sorted (id, title) pairs of all registered experiments."""
    def sort_key(eid: str):
        digits = "".join(ch for ch in eid if ch.isdigit())
        return (int(digits) if digits else 0, eid)

    return [(eid, _REGISTRY[eid][0]) for eid in sorted(_REGISTRY, key=sort_key)]


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """Look up an experiment function by id (e.g. ``"E3"``)."""
    try:
        return _REGISTRY[experiment_id][1]
    except KeyError:
        known = [eid for eid, _ in list_experiments()]
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


@contextlib.contextmanager
def sweep_store() -> Iterator[ResultStore]:
    """The store experiments commit their sweep points to: ``$REPRO_STORE``
    when set, so re-running over it computes nothing; else a temporary one."""
    root = os.environ.get("REPRO_STORE")
    if root:
        yield ResultStore(root)
        return
    with tempfile.TemporaryDirectory() as tmp:
        yield ResultStore(tmp)


def colony_spec(
    n: int, gamma_star: float, algorithm: AlgorithmSpec, *, burn_in: int, **fields: Any
) -> ScenarioSpec:
    """``n`` ants over 4 equal tasks on the counting engine, under sigmoid noise
    calibrated to ``gamma_star`` (the closeness reference); ``fields`` set or
    replace the other :class:`~repro.scenario.ScenarioSpec` fields."""
    return ScenarioSpec(
        **{
            "algorithm": algorithm,
            "demand": {"name": "uniform", "params": {"n": n, "k": 4}},
            "feedback": {"name": "calibrated_sigmoid", "params": {"gamma_star": gamma_star}},
            "engine": {"name": "counting"},
            "run_params": {"burn_in": burn_in},
            "gamma_star": gamma_star,
            **fields,
        }
    )
