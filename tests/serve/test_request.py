"""Request protocol: normalization, validation, and digest interop.

The load-bearing property is that a request's digest is *exactly* the
sweep-point digest of the corresponding batch path — a store seeded by
``sweep_scenario`` or a ``repro.sched`` grid serves matching requests as
cache hits, and vice versa.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.scenario import ScenarioSpec, sweep_scenario
from repro.sched import GridSpec
from repro.serve import ScenarioRequest
from repro.store import ResultStore


def tiny_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        algorithm={"name": "ant", "params": {"gamma": 0.025}},
        demand={"name": "uniform", "params": {"n": 2000, "k": 4}},
        feedback={"name": "exact"},
        engine={"name": "counting"},
        rounds=60,
        seed=11,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestNormalization:
    def test_spec_dict_is_coerced_and_rounds_default_from_spec(self):
        request = ScenarioRequest(spec=tiny_spec().to_dict())
        assert isinstance(request.spec, ScenarioSpec)
        assert request.rounds == 60
        assert request.trials == 1

    def test_params_are_canonicalized_in_sorted_order(self):
        a = ScenarioRequest(
            spec=tiny_spec(), params={"demand.k": 8, "algorithm.gamma": 0.03}
        )
        b = ScenarioRequest(
            spec=tiny_spec(), params={"algorithm.gamma": 0.03, "demand.k": 8}
        )
        assert list(a.params) == ["algorithm.gamma", "demand.k"]
        assert a.digest() == b.digest()
        assert a.job.label == "algorithm.gamma=0.03,demand.k=8"

    def test_round_trip_through_dict(self):
        request = ScenarioRequest(
            spec=tiny_spec(), params={"algorithm.gamma": 0.03}, trials=3
        )
        again = ScenarioRequest.from_dict(request.to_dict())
        assert again == request
        assert again.digest() == request.digest()

    @pytest.mark.parametrize(
        "data",
        [
            {"params": {}},  # no spec
            {"spec": 42},
            {"spec": {}, "bogus_key": 1},
            "not a mapping",
        ],
    )
    def test_malformed_bodies_raise_configuration_error(self, data):
        with pytest.raises(ConfigurationError):
            ScenarioRequest.from_dict(data)

    def test_top_level_param_paths_are_rejected(self):
        with pytest.raises(ConfigurationError, match="dotted|component"):
            ScenarioRequest(spec=tiny_spec(), params={"rounds": 10})

    def test_invalid_trials_and_rounds_are_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioRequest(spec=tiny_spec(), trials=0)
        with pytest.raises(ConfigurationError):
            ScenarioRequest(spec=tiny_spec(), rounds=0)

    def test_run_params_merge_over_spec_run_params(self):
        spec = tiny_spec(run_params={"burn_in": 10})
        request = ScenarioRequest(spec=spec, run_params={"burn_in": 20})
        assert request.job.run_params == {"burn_in": 20}
        assert ScenarioRequest(spec=spec).job.run_params == {"burn_in": 10}


class TestDigestInterop:
    def test_single_param_request_matches_sweep_point(self, tmp_path):
        """A sweep-seeded store serves the matching request as a hit."""
        store = ResultStore(tmp_path)
        sweep_scenario(tiny_spec(), "algorithm.gamma", [0.02, 0.04], trials=2, store=store)
        request = ScenarioRequest(
            spec=tiny_spec(), params={"algorithm.gamma": 0.02}, trials=2
        )
        assert store.has_record(request.digest())
        miss = ScenarioRequest(spec=tiny_spec(), params={"algorithm.gamma": 0.03}, trials=2)
        assert not store.has_record(miss.digest())

    def test_multi_param_request_matches_sorted_grid_point(self):
        grid = GridSpec(
            spec=tiny_spec(),
            axes=[
                {"parameter": "algorithm.gamma", "values": [0.02, 0.03]},
                {"parameter": "demand.k", "values": [4, 8]},
            ],
            trials=2,
        )
        expected = {point.digest for point in grid.points()}
        for gamma in (0.02, 0.03):
            for k in (4, 8):
                request = ScenarioRequest(
                    spec=tiny_spec(),
                    params={"demand.k": k, "algorithm.gamma": gamma},
                    trials=2,
                )
                assert request.digest() in expected

    def test_bare_request_cannot_alias_a_sweep_point(self):
        bare = ScenarioRequest(spec=tiny_spec(), trials=2)
        assert bare.job.key == ("", None)
        assert bare.job.label == tiny_spec().describe()
        swept = ScenarioRequest(
            spec=tiny_spec(), params={"algorithm.gamma": 0.025}, trials=2
        )
        assert bare.digest() != swept.digest()

    def test_digest_depends_on_run_shape(self):
        base = ScenarioRequest(spec=tiny_spec(), params={"algorithm.gamma": 0.03})
        assert (
            base.digest()
            != ScenarioRequest(
                spec=tiny_spec(), params={"algorithm.gamma": 0.03}, trials=2
            ).digest()
        )
        assert (
            base.digest()
            != ScenarioRequest(
                spec=tiny_spec(), params={"algorithm.gamma": 0.03}, rounds=61
            ).digest()
        )
        assert (
            base.digest()
            != ScenarioRequest(
                spec=tiny_spec(),
                params={"algorithm.gamma": 0.03},
                run_params={"burn_in": 5},
            ).digest()
        )
