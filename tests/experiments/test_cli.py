"""Tests for the experiment CLI."""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import _parse_axes, build_parser, main

TINY_SPEC = {
    "algorithm": {"name": "ant", "params": {"gamma": 0.025}},
    "demand": {"name": "uniform", "params": {"n": 2000, "k": 4}},
    "feedback": {"name": "exact"},
    "engine": {"name": "counting"},
    "rounds": 60,
    "seed": 11,
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TINY_SPEC), encoding="utf-8")
    return str(path)


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "E1"])
        assert args.experiment == "E1"
        assert args.scale == "full"
        assert args.seed == 0

    def test_run_options(self):
        args = build_parser().parse_args(["run", "E2", "--scale", "quick", "--seed", "7"])
        assert args.scale == "quick" and args.seed == 7

    def test_rejects_bad_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E1", "--scale", "huge"])

    def test_store_ls_json_flag(self):
        args = build_parser().parse_args(["store", "ls", "/tmp/s", "--json"])
        assert args.store_command == "ls" and args.json
        assert not build_parser().parse_args(["store", "ls", "/tmp/s"]).json

    def test_store_gc_age_and_grace(self):
        args = build_parser().parse_args(
            ["store", "gc", "/tmp/s", "--max-age", "86400", "--grace", "0"]
        )
        assert args.max_age == 86400.0 and args.grace == 0.0
        defaults = build_parser().parse_args(["store", "gc", "/tmp/s"])
        assert defaults.max_age is None and defaults.grace is None

    def test_sched_run_options(self):
        args = build_parser().parse_args(
            [
                "sched", "run", "spec.json", "--store", "/tmp/s",
                "--axis", "algorithm.gamma=0.02,0.04",
                "--axis", "demand.k=2,4",
                "--trials", "3", "--rounds", "100", "--workers", "2",
                "--ttl", "5", "--init-only", "--json",
            ]
        )
        assert args.sched_command == "run"
        assert args.axis == ["algorithm.gamma=0.02,0.04", "demand.k=2,4"]
        assert args.trials == 3 and args.rounds == 100 and args.workers == 2
        assert args.ttl == 5.0
        assert args.init_only and args.json

    def test_sched_run_requires_store_and_axis(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sched", "run", "spec.json", "--store", "/tmp/s"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sched", "run", "spec.json", "--axis", "a.b=1"])

    def test_sched_work_and_status_options(self):
        work = build_parser().parse_args(
            ["sched", "work", "/tmp/s", "--grid", "abc", "--max-points", "2",
             "--worker-id", "w7"]
        )
        assert work.sched_command == "work"
        assert work.grid == "abc" and work.max_points == 2 and work.worker_id == "w7"
        status = build_parser().parse_args(["sched", "status", "/tmp/s", "--json"])
        assert status.sched_command == "status" and status.json


class TestParseAxes:
    def test_values_parse_like_sweep_values(self):
        axes = _parse_axes(["algorithm.gamma=0.02,0.04", "demand.name=uniform,powerlaw"])
        assert axes == [
            {"parameter": "algorithm.gamma", "values": [0.02, 0.04]},
            {"parameter": "demand.name", "values": ["uniform", "powerlaw"]},
        ]

    def test_malformed_axis_exits(self):
        with pytest.raises(SystemExit, match="--axis"):
            _parse_axes(["nonsense"])
        with pytest.raises(SystemExit, match="--axis"):
            _parse_axes(["=0.02"])


class TestMain:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E15" in out

    def test_run_e1(self, capsys):
        assert main(["run", "E1", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_run_unknown_raises(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["run", "E99"])


class TestSchedMain:
    """sched run / work / status + store ls --json, end to end."""

    def _run(self, capsys, *argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_grid_lifecycle(self, tmp_path, capsys, spec_file):
        store = str(tmp_path / "grid")
        run = [
            "sched", "run", spec_file, "--store", store,
            "--axis", "algorithm.gamma=0.02,0.04", "--trials", "1", "--json",
        ]
        # 1. init-only persists the manifest without running a point
        out = self._run(capsys, *run[:-1], "--init-only", "--json")
        status = json.loads(out)
        assert status["pending"] == 2 and status["committed"] == 0

        # 2. the drain commits every point
        status = json.loads(self._run(capsys, *run))
        assert status["done"] is True and status["committed"] == 2

        # 3. status agrees, in both renderings
        status = json.loads(self._run(capsys, "sched", "status", store, "--json"))
        assert status["done"] is True
        human = self._run(capsys, "sched", "status", store)
        assert "2/2 committed" in human

        # 4. a late worker finds nothing to do
        out = self._run(capsys, "sched", "work", store)
        assert "computed=0" in out

        # 5. the canonical listing is byte-stable and counts the grid
        ls1 = self._run(capsys, "store", "ls", store, "--json")
        ls2 = self._run(capsys, "store", "ls", store, "--json")
        assert ls1 == ls2
        payload = json.loads(ls1)
        assert payload["count"] == 2
        assert all("created_unix" not in r["meta"] for r in payload["records"])

    def test_work_without_a_grid_raises(self, tmp_path):
        from repro.exceptions import SchedulerError

        with pytest.raises(SchedulerError, match="no grids"):
            main(["sched", "work", str(tmp_path / "empty")])

    def test_malformed_axis_exits(self, tmp_path, spec_file):
        with pytest.raises(SystemExit, match="--axis"):
            main(
                ["sched", "run", spec_file, "--store", str(tmp_path / "s"),
                 "--axis", "nonsense"]
            )

    def test_store_gc_flags_reach_the_store(self, tmp_path, capsys, spec_file):
        store = str(tmp_path / "grid")
        self._run(
            capsys, "sched", "run", spec_file, "--store", store,
            "--axis", "algorithm.gamma=0.02", "--trials", "1",
        )
        out = self._run(capsys, "store", "gc", store, "--grace", "0", "--max-age", "86400")
        assert "gc removed" in out and "stale_leases=0" in out


class TestNonFiniteTtl:
    """Every command taking ``--ttl`` refuses NaN and +inf before it
    binds a port or forks a worker: such a lease never goes stale."""

    @pytest.fixture(autouse=True)
    def no_bind_or_fork(self, monkeypatch):
        import multiprocessing

        import repro.serve

        def refuse(*args, **kwargs):
            raise AssertionError("reached a port bind or a worker fork")

        monkeypatch.setattr(repro.serve, "run_server", refuse)
        monkeypatch.setattr(multiprocessing, "get_context", refuse)

    @pytest.mark.parametrize("ttl", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["run", "work", "status", "serve"])
    def test_is_refused(self, tmp_path, spec_file, command, ttl):
        from repro.exceptions import ConfigurationError

        store = str(tmp_path / "grid")
        run = [
            "sched", "run", spec_file, "--store", store,
            "--axis", "algorithm.gamma=0.02", "--trials", "1",
        ]
        if command in ("work", "status"):
            assert main([*run, "--init-only"]) == 0
        argv = {
            "run": [*run, "--workers", "2"],
            "work": ["sched", "work", store],
            "status": ["sched", "status", store],
            "serve": ["serve", store, "--port", "0"],
        }[command]
        with pytest.raises(ConfigurationError, match="lease ttl"):
            main([*argv, "--ttl", ttl])
