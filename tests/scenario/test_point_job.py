"""One point path: sweeps, grid workers and the service share ``PointJob``.

Each path derives a point's identity, computes it, commits its record and
reads it back through the same :class:`~repro.scenario.PointJob`, so the
paths cannot drift apart: a coordinate written as a tuple or as a list is
one point with one record, and a record whose payload cannot be read is
recomputed by every path, ending in the same bytes a clean run commits.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.scenario import ScenarioSpec, sweep_scenario
from repro.sched import GridSpec, run_grid, run_worker
from repro.serve import ScenarioRequest, ScenarioService
from repro.store import ResultStore
from repro.store.records import PAYLOAD_SUFFIX

from tests.serve.test_request import tiny_spec

GAMMA = 0.03
TRIALS = 2


def results_tree(store: ResultStore) -> dict[str, bytes]:
    """Every file under ``results/``, by relative path."""
    root = store.results_dir
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestOneCoordinateForm:
    def test_tuple_sweep_and_list_grid_write_identical_stores(self, tmp_path):
        spec = ScenarioSpec(
            algorithm={"name": "ant", "params": {"gamma": 0.025}},
            demand={"name": "explicit", "params": {"demands": [300, 500], "n": 2000}},
            feedback={"name": "exact"},
            engine={"name": "counting"},
            rounds=60,
            seed=11,
        )
        swept = ResultStore(tmp_path / "sweep")
        sweep_scenario(spec, "demand.demands", [(400, 600)], trials=TRIALS, store=swept)
        grid = GridSpec(
            spec=spec,
            axes=[{"parameter": "demand.demands", "values": [[400, 600]]}],
            trials=TRIALS,
        )
        gridded = ResultStore(tmp_path / "grid")
        run_grid(gridded, grid)
        (job,) = grid.points()
        assert job.label == "demand.demands=[400, 600]"
        assert results_tree(swept) == results_tree(gridded)
        assert len(results_tree(swept)) == 2


def _sweep(store: ResultStore) -> None:
    out = sweep_scenario(tiny_spec(), "algorithm.gamma", [GAMMA], trials=TRIALS, store=store)
    assert out.resumed == [False]


def _grid_worker(store: ResultStore) -> None:
    grid = GridSpec(
        spec=tiny_spec(),
        axes=[{"parameter": "algorithm.gamma", "values": [GAMMA]}],
        trials=TRIALS,
    )
    assert run_worker(store, grid).computed == 1


def _service(store: ResultStore) -> None:
    request = ScenarioRequest(spec=tiny_spec(), params={"algorithm.gamma": GAMMA}, trials=TRIALS)
    with ScenarioService(store, workers=1) as service:
        digest, disposition = service.submit(request)
        assert disposition == "queued"
        deadline = time.monotonic() + 30.0
        while service.state_of(digest) != "committed":
            assert time.monotonic() < deadline, "service never committed the request"
            time.sleep(0.01)
        assert service.status().computed == 1


PATHS = {"sweep": _sweep, "grid_worker": _grid_worker, "service": _service}


def _garbage(payload: Path) -> None:
    payload.write_bytes(b"not an npz at all")


def _truncated(payload: Path) -> None:
    payload.write_bytes(payload.read_bytes()[:20])


def _missing(payload: Path) -> None:
    payload.unlink()


BROKEN = {"garbage": _garbage, "truncated": _truncated, "missing": _missing}


class TestUnreadablePayload:
    @pytest.mark.parametrize("state", sorted(BROKEN))
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_every_path_recomputes_it(self, tmp_path, path, state):
        store = ResultStore(tmp_path)
        out = sweep_scenario(tiny_spec(), "algorithm.gamma", [GAMMA], trials=TRIALS, store=store)
        assert out.resumed == [False]
        clean = results_tree(store)
        ((digest, _),) = list(store.iter_records())
        BROKEN[state](store.record_dir(digest) / f"{digest}{PAYLOAD_SUFFIX}")
        assert not store.has_record(digest)
        assert store.read_record(digest) is None

        PATHS[path](store)
        assert store.has_record(digest)
        assert results_tree(store) == clean
