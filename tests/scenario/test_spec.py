"""Tests for the declarative spec layer: validation + serialization.

The canonical-params tables below drive a JSON round-trip test over
*every* registered component and every algorithm/feedback/demand/engine
combination; a guard test fails if a new registration is missing from
the tables, keeping the coverage exhaustive by construction.
"""

from __future__ import annotations

import itertools
import pickle

import numpy as np
import pytest

from repro.core.registry import available_algorithms
from repro.env.demands import DemandSchedule, DemandVector
from repro.env.registry import available_demands, available_feedbacks, available_populations
from repro.exceptions import ConfigurationError
from repro.scenario import (
    AlgorithmSpec,
    DemandSpec,
    EngineSpec,
    FeedbackSpec,
    PointJob,
    PopulationSpec,
    ScenarioFactory,
    ScenarioSpec,
    available_engines,
)
from repro.scenario.engines import _build_agent
from repro.sim.runner import run_trials

from tests.serve.test_request import tiny_spec

N, K = 2000, 4

#: Canonical constructor params for every registered component name.
ALGORITHM_PARAMS = {
    "ant": {"gamma": 0.02},
    "ant_one_sample": {"gamma": 0.02},
    "ant_scout": {"gamma": 0.02},
    "precise_sigmoid": {"gamma": 0.02, "eps": 0.5},
    "precise_adversarial": {"gamma": 0.02, "eps": 0.5},
    "trivial": {},
}
FEEDBACK_PARAMS = {
    "sigmoid": {"lam": 1.0},
    "calibrated_sigmoid": {"gamma_star": 0.01},
    "exact": {},
    "correlated_sigmoid": {"lam": 1.0, "rho": 0.5},
    "adversarial": {"gamma_ad": 0.05, "strategy": "inverted"},
    "threshold": {"thresholds": [250, 250, 250, 250]},
}
DEMAND_PARAMS = {
    "uniform": {"n": N, "k": K},
    "proportional": {"n": N, "weights": [1, 2, 1, 1]},
    "powerlaw": {"n": N, "k": K, "alpha": 1.0},
    "lognormal": {"n": N, "k": K, "sigma": 0.8, "seed": 3},
    "explicit": {"demands": [250, 250, 250, 250], "n": N},
    "step": {"steps": [[0, [250, 250, 250, 250]], [500, [300, 200, 250, 250]]], "n": N},
    "periodic": {
        "phases": [[250, 250, 250, 250], [300, 200, 250, 250]],
        "n": N,
        "period": 500,
    },
    "periodic_proportional": {
        "n": N,
        "phase_weights": [[4, 1, 2, 1], [1, 4, 2, 1]],
        "period": 500,
    },
}
POPULATION_PARAMS = {
    "static": {"n": N},
    "step": {"steps": [[0, N], [500, N - 500]]},
}
ENGINE_PARAMS = {
    "agent": {},
    "counting": {},
    "counting_batched": {"batch": 8, "backend": "numpy"},
    "sequential": {},
}


def base_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        algorithm={"name": "ant", "params": {"gamma": 0.02}},
        demand={"name": "uniform", "params": {"n": N, "k": K}},
        feedback={"name": "calibrated_sigmoid", "params": {"gamma_star": 0.01}},
        rounds=100,
        seed=1,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestCanonicalTablesAreExhaustive:
    """New registrations must extend the tables (keeps round-trips total)."""

    def test_algorithms(self):
        assert set(ALGORITHM_PARAMS) == set(available_algorithms())

    def test_feedbacks(self):
        assert set(FEEDBACK_PARAMS) == set(available_feedbacks())

    def test_demands(self):
        assert set(DEMAND_PARAMS) == set(available_demands())

    def test_populations(self):
        assert set(POPULATION_PARAMS) == set(available_populations())

    def test_engines(self):
        assert set(ENGINE_PARAMS) == set(available_engines())


class TestComponentSpecs:
    @pytest.mark.parametrize(
        "spec_cls, table",
        [
            (AlgorithmSpec, ALGORITHM_PARAMS),
            (FeedbackSpec, FEEDBACK_PARAMS),
            (DemandSpec, DEMAND_PARAMS),
            (PopulationSpec, POPULATION_PARAMS),
            (EngineSpec, ENGINE_PARAMS),
        ],
        ids=["algorithm", "feedback", "demand", "population", "engine"],
    )
    def test_round_trip_every_registered_name(self, spec_cls, table):
        for name, params in table.items():
            spec = spec_cls(name=name, params=params)
            assert spec_cls.from_dict(spec.to_dict()) == spec

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigurationError, match=r"unknown algorithm 'nope'.*'ant'"):
            AlgorithmSpec("nope")
        with pytest.raises(ConfigurationError, match=r"unknown feedback model.*'sigmoid'"):
            FeedbackSpec("nope")
        with pytest.raises(ConfigurationError, match=r"unknown demand.*'uniform'"):
            DemandSpec("nope")
        with pytest.raises(ConfigurationError, match=r"unknown population.*'static'"):
            PopulationSpec("nope")
        with pytest.raises(ConfigurationError, match=r"unknown engine.*'agent'"):
            EngineSpec("nope")

    def test_non_json_params_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON-serializable"):
            AlgorithmSpec("ant", {"gamma": object()})

    def test_non_string_param_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="param names must be strings"):
            AlgorithmSpec("ant", {1: 2})

    def test_params_canonicalized_to_json_types(self):
        spec = DemandSpec("proportional", {"n": N, "weights": (1, 2, 1, 1)})
        assert spec.params["weights"] == [1, 2, 1, 1]

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm spec keys"):
            AlgorithmSpec.from_dict({"name": "ant", "parms": {}})

    def test_build_demand_vector_and_schedule(self):
        assert isinstance(DemandSpec("uniform", DEMAND_PARAMS["uniform"]).build(), DemandVector)
        assert isinstance(DemandSpec("step", DEMAND_PARAMS["step"]).build(), DemandSchedule)

    def test_demand_aware_feedback_injection(self):
        demand = DemandSpec("uniform", DEMAND_PARAMS["uniform"]).build()
        for name in ("calibrated_sigmoid", "threshold"):
            model = FeedbackSpec(name, FEEDBACK_PARAMS[name]).build(demand=demand)
            assert model is not None
        # Demand-oblivious models silently ignore the injected demand.
        model = FeedbackSpec("sigmoid", {"lam": 1.0}).build(demand=demand)
        assert model.lam == 1.0

    def test_calibrated_sigmoid_requires_demand(self):
        with pytest.raises(ConfigurationError, match="demand"):
            FeedbackSpec("calibrated_sigmoid", {"gamma_star": 0.01}).build()


class TestUnknownParams:
    """Param names are checked against the factory's signature when the
    spec is constructed, not when it is built."""

    @pytest.mark.parametrize(
        "spec_cls, name",
        [
            (AlgorithmSpec, "ant"),
            (FeedbackSpec, "sigmoid"),
            (DemandSpec, "uniform"),
            (PopulationSpec, "static"),
            (EngineSpec, "counting"),
        ],
        ids=["algorithm", "feedback", "demand", "population", "engine"],
    )
    def test_unknown_param_raises_and_lists_accepted_names(self, spec_cls, name):
        with pytest.raises(ConfigurationError, match=r"unknown \S.* params \['warp'\]") as info:
            spec_cls(name, {"warp": 1})
        accepted = {
            AlgorithmSpec: "gamma",
            FeedbackSpec: "lam",
            DemandSpec: "load_fraction",
            PopulationSpec: "'n'",
            EngineSpec: "pi_cache",
        }[spec_cls]
        assert "accepted:" in str(info.value) and accepted in str(info.value)

    def test_scenario_spec_and_with_param_are_checked(self):
        with pytest.raises(ConfigurationError, match="warp"):
            base_spec(engine={"name": "counting", "params": {"warp": 1}})
        with pytest.raises(ConfigurationError, match="warp"):
            base_spec().with_param("algorithm.warp", 1)

    def test_kwargs_factories_accept_any_name(self):
        from repro.scenario import register_engine, unregister_engine

        def plugin(algorithm, demand, feedback, **options):
            return options

        register_engine("kwargs_plugin", plugin, example={})
        try:
            assert EngineSpec("kwargs_plugin", {"anything": 1}).params == {"anything": 1}
        finally:
            unregister_engine("kwargs_plugin")

    def test_accepted_names_are_computed_once_per_factory(self, monkeypatch):
        import repro.scenario.spec as spec_mod

        spec_mod._factory_params.cache_clear()
        calls = []
        real = spec_mod.inspect.signature

        def counted(obj, *args, **kwargs):
            calls.append(obj)
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(spec_mod.inspect, "signature", counted)
        spec = base_spec(engine={"name": "counting"})
        for gamma in (0.01, 0.02, 0.03):
            spec.with_param("algorithm.gamma", gamma).build()
        assert len(calls) == len(set(calls)) > 0


class TestScenarioSpec:
    def test_dict_components_coerced(self):
        spec = base_spec()
        assert isinstance(spec.algorithm, AlgorithmSpec)
        assert isinstance(spec.engine, EngineSpec)
        assert spec.engine.name == "agent"

    def test_json_round_trip(self):
        spec = base_spec(
            engine={"name": "counting"},
            population={"name": "step", "params": POPULATION_PARAMS["step"]},
            run_params={"burn_in": 50},
            gamma_star=0.01,
            label="full house",
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_round_trip_every_component_combination(self):
        for alg, fb, dem, eng in itertools.product(
            ALGORITHM_PARAMS, FEEDBACK_PARAMS, DEMAND_PARAMS, ENGINE_PARAMS
        ):
            spec = ScenarioSpec(
                algorithm={"name": alg, "params": ALGORITHM_PARAMS[alg]},
                demand={"name": dem, "params": DEMAND_PARAMS[dem]},
                feedback={"name": fb, "params": FEEDBACK_PARAMS[fb]},
                engine={"name": eng, "params": ENGINE_PARAMS[eng]},
            )
            rebuilt = ScenarioSpec.from_json(spec.to_json())
            assert rebuilt == spec, f"round trip failed for {alg}/{fb}/{dem}/{eng}"

    def test_round_trip_every_population(self):
        for name, params in POPULATION_PARAMS.items():
            spec = base_spec(
                engine={"name": "counting"}, population={"name": name, "params": params}
            )
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_pickle_round_trip(self):
        spec = base_spec(engine={"name": "counting"})
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_heterogeneous_spec_builds_and_runs(self):
        # Per-task lambda + power-law demands + the cache engine knob,
        # declaratively.
        spec = base_spec(
            demand={"name": "powerlaw", "params": {"n": N, "k": K, "alpha": 1.0}},
            feedback={"name": "sigmoid", "params": {"lam": [0.5, 1.0, 1.5, 2.0]}},
            engine={"name": "counting", "params": {"pi_cache": True}},
            rounds=20,
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        sim = spec.build()
        assert sim.pi_cache_enabled
        out = sim.run(spec.rounds)
        assert out.k == K

    def test_agent_engine_runs_an_assignment_list_as_the_equal_array(self):
        # A spec holds an explicit start as a JSON list.
        assignment = np.repeat(np.arange(-1, K), N // (K + 1))
        spec = base_spec(
            engine={"name": "agent", "params": {"initial_assignment": assignment.tolist()}}
        )
        demand = spec.build_demand()
        by_array = _build_agent(
            spec.algorithm.build(),
            demand,
            spec.feedback.build(demand=demand),
            seed=spec.seed,
            initial_assignment=assignment,
        )
        a = spec.build().run(spec.rounds, trace_stride=1)
        b = by_array.run(spec.rounds, trace_stride=1)
        assert np.array_equal(a.trace.loads, b.trace.loads)
        assert a.metrics.average_regret == b.metrics.average_regret

    def test_per_task_lambda_length_checked_at_build(self):
        spec = base_spec(
            feedback={"name": "sigmoid", "params": {"lam": [0.5, 1.0]}},  # k=4 scenario
        )
        with pytest.raises(ConfigurationError, match="k=4"):
            spec.build()

    def test_engine_rejects_unknown_kernel_method_at_build(self):
        # The removed kernel knob is an unknown engine param: the spec is
        # refused at construction, before anything could build it.
        with pytest.raises(ConfigurationError, match="join_kernel_method"):
            base_spec(engine={"name": "counting", "params": {"join_kernel_method": "auto"}})

    def test_population_requires_counting_engine(self):
        with pytest.raises(ConfigurationError, match="population-aware"):
            base_spec(population={"name": "static", "params": {"n": N}})

    def test_population_with_counting_engine_builds(self):
        spec = base_spec(
            engine={"name": "counting"},
            population={"name": "step", "params": POPULATION_PARAMS["step"]},
        )
        assert spec.build() is not None

    def test_invalid_rounds_and_seed(self):
        with pytest.raises(ConfigurationError):
            base_spec(rounds=0)
        with pytest.raises(ConfigurationError, match="seed"):
            base_spec(seed="zero")
        with pytest.raises(ConfigurationError, match="non-negative"):
            base_spec(seed=-1)

    def test_custom_population_aware_engine(self):
        from repro.scenario import register_engine, unregister_engine

        def dummy_engine(algorithm, demand, feedback, *, seed=None, population=None):
            return ("dummy", population)

        register_engine("dummy_pop_engine", dummy_engine, population_aware=True)
        try:
            spec = base_spec(
                engine={"name": "dummy_pop_engine"},
                population={"name": "static", "params": {"n": N}},
            )
            kind, population = spec.build()
            assert kind == "dummy" and population is not None
        finally:
            unregister_engine("dummy_pop_engine")
        # Unregistering also clears the population-aware flag.
        with pytest.raises(ConfigurationError, match="unknown engine"):
            base_spec(engine={"name": "dummy_pop_engine"})

    def test_invalid_gamma_star(self):
        with pytest.raises(ConfigurationError, match="gamma_star"):
            base_spec(gamma_star=1.5)

    def test_burn_in_must_be_below_rounds(self):
        base_spec(rounds=100, run_params={"burn_in": 99})  # valid
        with pytest.raises(ConfigurationError, match="burn_in"):
            base_spec(rounds=100, run_params={"burn_in": 100})
        with pytest.raises(ConfigurationError, match="burn_in"):
            base_spec(rounds=100, run_params={"burn_in": -5})

    def test_many_task_counting_scenario_declarable(self):
        # The O(k^2) join kernel removed the practical k <= 14 ceiling:
        # a counting scenario with hundreds of tasks is declarable,
        # buildable, and runnable.
        spec = ScenarioSpec(
            algorithm={"name": "ant", "params": {"gamma": 0.025}},
            demand={"name": "uniform", "params": {"n": 128000, "k": 128}},
            feedback={"name": "calibrated_sigmoid", "params": {"gamma_star": 0.01}},
            engine={"name": "counting", "params": {"join_strategy": "exact"}},
            rounds=20,
            seed=5,
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        out = spec.build().run(spec.rounds)
        assert out.k == 128

    def test_counting_engine_join_strategy_validated(self):
        spec = base_spec(engine={"name": "counting",
                                 "params": {"join_strategy": "enumerate"}})
        with pytest.raises(ConfigurationError, match="join_strategy"):
            spec.build()

    @pytest.mark.parametrize("engine", ["counting", "counting_batched"])
    def test_per_ant_join_strategy_is_gone(self, engine):
        spec = base_spec(engine={"name": engine, "params": {"join_strategy": "per_ant"}})
        with pytest.raises(ConfigurationError, match="join_strategy"):
            spec.build()

    #: The digest of a point whose spec names ``join_strategy: "exact"``,
    #: pinned while ``"per_ant"`` was still an option: making the param
    #: inert moved no spec's digest.  Only a ``NUMERICS_VERSION`` bump may
    #: move it.
    EXACT_JOINS_DIGEST = "58e42fc41e6e725e4b57cc826ac692e0b03e60ab707f40219ea406abcab73dea"

    def test_exact_join_strategy_keeps_its_digest_and_is_inert(self):
        named = tiny_spec(engine={"name": "counting", "params": {"join_strategy": "exact"}})
        job = PointJob(base=named, coordinate=(), rounds=60, trials=2, run_params={})
        assert job.digest == self.EXACT_JOINS_DIGEST
        arrays, _ = job.point_record(job.compute())
        unnamed = run_trials(ScenarioFactory(tiny_spec()), job.rounds, job.trials, seed=job.seed)
        for name, values in arrays.items():
            np.testing.assert_array_equal(values, getattr(unnamed, name))

    def test_from_dict_rejects_unknown_keys(self):
        data = base_spec().to_dict()
        data["algorithmn"] = data["algorithm"]
        with pytest.raises(ConfigurationError, match="unknown scenario spec keys"):
            ScenarioSpec.from_dict(data)

    def test_from_dict_requires_core_components(self):
        data = base_spec().to_dict()
        del data["feedback"]
        with pytest.raises(ConfigurationError, match="needs 'feedback'"):
            ScenarioSpec.from_dict(data)

    def test_from_json_bad_text(self):
        with pytest.raises(ConfigurationError, match="invalid scenario JSON"):
            ScenarioSpec.from_json("{not json")

    def test_with_param_component(self):
        spec = base_spec()
        derived = spec.with_param("algorithm.gamma", 0.05)
        assert derived.algorithm.params["gamma"] == 0.05
        assert spec.algorithm.params["gamma"] == 0.02  # original untouched

    def test_with_param_top_level(self):
        assert base_spec().with_param("rounds", 77).rounds == 77

    def test_with_param_errors(self):
        with pytest.raises(ConfigurationError, match="cannot set"):
            base_spec().with_param("bogus", 1)
        with pytest.raises(ConfigurationError, match="unknown component"):
            base_spec().with_param("bogus.x", 1)
        with pytest.raises(ConfigurationError, match="no population"):
            base_spec().with_param("population.n", 1)

    def test_with_param_revalidates_spec_level(self):
        with pytest.raises(ConfigurationError, match="JSON-serializable"):
            base_spec().with_param("algorithm.gamma", object())

    def test_with_param_bad_value_surfaces_at_build(self):
        with pytest.raises(ConfigurationError):
            base_spec().with_param("algorithm.gamma", 5.0).build()

    def test_describe_default_and_label(self):
        assert base_spec().describe() == "ant@agent"
        assert base_spec(label="x").describe() == "x"

    def test_initial_demand(self):
        spec = base_spec(demand={"name": "step", "params": DEMAND_PARAMS["step"]})
        assert spec.initial_demand().as_array().tolist() == [250, 250, 250, 250]
