"""GridSpec: cross products, content addressing, validation, records.

The grid's contract is *identity*: every point's digest and seed are
pure functions of the point's own coordinates, so grids are resumable
frontier sets and single-axis grids interoperate byte-for-byte with
classic store-backed sweeps (the behavioural half of that claim lives
in ``test_scheduler.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.scenario import ScenarioSpec
from repro.sched import GridAxis, GridSpec
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


def two_axis_grid(**overrides) -> GridSpec:
    kwargs = dict(
        spec=tiny_spec(),
        axes=[
            {"parameter": "algorithm.gamma", "values": [0.02, 0.04]},
            {"parameter": "demand.k", "values": [2, 4, 8]},
        ],
        trials=2,
    )
    kwargs.update(overrides)
    return GridSpec(**kwargs)


class TestEnumeration:
    def test_row_major_last_axis_fastest(self):
        grid = two_axis_grid()
        assert grid.n_points == 6
        coords = [tuple(p.params.values()) for p in grid.points()]
        assert coords == [
            (0.02, 2), (0.02, 4), (0.02, 8),
            (0.04, 2), (0.04, 4), (0.04, 8),
        ]

    def test_labels_match_sweep_convention(self):
        grid = two_axis_grid()
        assert grid.points()[0].label == "algorithm.gamma=0.02,demand.k=2"
        single = GridSpec(
            spec=tiny_spec(),
            axes=[{"parameter": "algorithm.gamma", "values": [0.02]}],
        )
        # One axis: exactly the "p=v" label sweep_scenario writes.
        assert single.points()[0].label == "algorithm.gamma=0.02"

    def test_derived_specs_carry_the_coordinate(self):
        grid = two_axis_grid()
        point = grid.points()[4]  # gamma=0.04, k=4
        assert point.spec.algorithm.params["gamma"] == 0.04
        assert point.spec.demand.params["k"] == 4
        # The base spec is untouched.
        assert grid.spec.algorithm.params["gamma"] == 0.025

    def test_parameters_and_run_params_merge(self):
        grid = GridSpec(
            spec=tiny_spec(run_params={"burn_in": 5, "window": 3}),
            axes=[{"parameter": "algorithm.gamma", "values": [0.02]}],
            run_overrides={"window": 9},
        )
        assert grid.parameters == ["algorithm.gamma"]
        assert grid.run_params == {"burn_in": 5, "window": 9}

    def test_rounds_defaults_to_spec(self):
        assert two_axis_grid().rounds == 60
        assert two_axis_grid(rounds=30).rounds == 30


class TestIdentity:
    def test_digests_and_seeds_unique(self):
        grid = two_axis_grid()
        assert len({p.digest for p in grid.points()}) == grid.n_points
        assert len({p.seed for p in grid.points()}) == grid.n_points

    def test_insertion_never_reshuffles_existing_points(self):
        # The frontier-set property: adding an axis value leaves every
        # pre-existing point's digest AND seed untouched.
        def by_coord(grid):
            return {tuple(p.params.values()): (p.digest, p.seed) for p in grid.points()}

        outer = by_coord(two_axis_grid())
        inner = GridSpec(
            spec=tiny_spec(),
            axes=[
                {"parameter": "algorithm.gamma", "values": [0.02, 0.03, 0.04]},
                {"parameter": "demand.k", "values": [2, 4, 8]},
            ],
            trials=2,
        )
        full = by_coord(inner)
        for coord, identity in outer.items():
            assert full[coord] == identity

    def test_identity_depends_on_execution_config(self):
        base = two_axis_grid()
        for changed in (
            two_axis_grid(trials=3),
            two_axis_grid(rounds=30),
            two_axis_grid(run_overrides={"burn_in": 10}),
            two_axis_grid(spec=tiny_spec(seed=12)),
        ):
            assert changed.points()[0].digest != base.points()[0].digest
            assert changed.grid_digest() != base.grid_digest()

    def test_json_roundtrip_preserves_identity(self):
        grid = two_axis_grid(run_overrides={"burn_in": 10})
        again = GridSpec.from_json(grid.to_json())
        assert again.grid_digest() == grid.grid_digest()
        assert [p.digest for p in again.points()] == [p.digest for p in grid.points()]
        assert [p.seed for p in again.points()] == [p.seed for p in grid.points()]

    def test_closeness_inputs_follow_gamma_star(self):
        def computed(spec):
            grid = GridSpec(
                spec=spec,
                axes=[{"parameter": "algorithm.gamma", "values": [0.02]}],
                trials=1,
            )
            return grid.points()[0].compute()

        assert computed(tiny_spec()).closenesses is None
        assert computed(tiny_spec(gamma_star=0.01)).closenesses.shape == (1,)


class TestValidation:
    def test_needs_at_least_one_axis(self):
        with pytest.raises(ConfigurationError, match="at least one axis"):
            GridSpec(spec=tiny_spec(), axes=[])

    def test_duplicate_axis_parameters_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            GridSpec(
                spec=tiny_spec(),
                axes=[
                    {"parameter": "algorithm.gamma", "values": [0.02]},
                    {"parameter": "algorithm.gamma", "values": [0.04]},
                ],
            )

    def test_axis_parameter_must_be_dotted(self):
        with pytest.raises(ConfigurationError, match="algorithm.gamma"):
            GridAxis(parameter="rounds", values=(100,))

    def test_axis_values_must_be_nonempty_json(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            GridAxis(parameter="algorithm.gamma", values=())
        with pytest.raises(ConfigurationError, match="non-empty"):
            GridAxis(parameter="algorithm.gamma", values="0.02")
        with pytest.raises(ConfigurationError, match="JSON-serializable"):
            GridAxis(parameter="algorithm.gamma", values=(float("nan"),))
        with pytest.raises(ConfigurationError, match="JSON-serializable"):
            GridAxis(parameter="algorithm.gamma", values=(object(),))

    def test_bad_coordinate_fails_at_construction(self):
        # A typo'd axis component must not survive until some worker
        # process: points are derived (and validated) eagerly.
        with pytest.raises(ConfigurationError):
            GridSpec(
                spec=tiny_spec(),
                axes=[{"parameter": "nonsense.gamma", "values": [1]}],
            )

    def test_burn_in_checked_against_grid_rounds(self):
        with pytest.raises(ConfigurationError, match="burn_in"):
            two_axis_grid(rounds=10, run_overrides={"burn_in": 10})
        # Fine when the horizon covers it.
        assert two_axis_grid(rounds=11, run_overrides={"burn_in": 10}).rounds == 11

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown grid spec keys"):
            GridSpec.from_dict({"spec": tiny_spec().to_dict(), "axes": [], "bogus": 1})
        with pytest.raises(ConfigurationError, match="unknown grid axis keys"):
            GridAxis.from_dict({"parameter": "a.b", "values": [1], "extra": 2})

    def test_from_dict_requires_spec_and_axes(self):
        with pytest.raises(ConfigurationError, match="'spec'"):
            GridSpec.from_dict({"axes": [{"parameter": "a.b", "values": [1]}]})
        with pytest.raises(ConfigurationError, match="'axes'"):
            GridSpec.from_dict({"spec": tiny_spec().to_dict()})

    def test_invalid_json_text(self):
        with pytest.raises(ConfigurationError, match="invalid grid JSON"):
            GridSpec.from_json("{not json")


class TestRecords:
    def test_point_record_roundtrip(self, tmp_path):
        grid = GridSpec(
            spec=tiny_spec(),
            axes=[{"parameter": "algorithm.gamma", "values": [0.02]}],
            trials=2,
        )
        job = grid.points()[0]
        computed = job.compute()
        arrays, meta = job.point_record(computed)
        assert meta["kind"] == "sweep_point"
        assert meta["label"] == job.label
        # Single axis: scalar parameter/value, readable by sweep resume.
        assert meta["parameter"] == "algorithm.gamma" and meta["value"] == 0.02
        # Determinism: no wall-clock field may sneak into the manifest.
        assert "created_unix" not in meta

        store = ResultStore(tmp_path)
        store.write_record(job.digest, arrays, meta)
        summary = job.read(store)
        assert summary is not None
        assert summary.label == job.label and summary.trials == 2
        assert np.array_equal(summary.average_regrets, computed.average_regrets)
        assert summary.params == job.params == {"algorithm.gamma": 0.02}

    def test_multi_axis_meta_uses_parallel_lists(self):
        grid = two_axis_grid(trials=1)
        job = grid.points()[0]
        _, meta = job.point_record(job.compute())
        assert meta["parameter"] == ["algorithm.gamma", "demand.k"]
        assert meta["value"] == [0.02, 2]

    def test_foreign_record_reads_as_none(self, tmp_path):
        store = ResultStore(tmp_path)
        job = two_axis_grid().points()[0]
        store.write_record(job.digest, {"a": np.array([1.0])}, {"kind": "something_else"})
        assert job.read(store) is None

        # A sweep_point manifest whose payload arrays are missing.
        store.write_record(
            job.digest,
            {"a": np.array([1.0])},
            {"kind": "sweep_point", "label": "x", "trials": 1, "rounds": 60},
        )
        assert job.read(store) is None
