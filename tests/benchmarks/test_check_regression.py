"""Unit tests for the CI benchmark-regression gate.

The gate script lives in ``benchmarks/`` (not an installed package), so
it is loaded straight from its file.  The committed baseline
``BENCH_counting.json`` doubles as a fixture: the acceptance criterion
"a synthetic 2x slowdown injected into the baseline makes the gate
fail" is demonstrated against the real record, not a toy one.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


@pytest.fixture
def record() -> dict:
    return {
        "kernel": {
            "k=64": {"seconds_per_call": 0.002, "calls_per_second": 500.0},
            "k=1024": {"seconds_per_call": 0.05, "calls_per_second": 20.0},
        },
        "join_kernel_methods": {
            "k=8192": {"quadrature_seconds_per_call": 0.1, "speedup_vs_dp": 40.0}
        },
        "speedup_at_k12": 200.0,
        "floors": {
            "speedup_at_k12": 10.0,
            "join_kernel_methods.k=8192.speedup_vs_dp": 2.0,
        },
    }


class TestCheckRegressions:
    def test_identical_records_pass(self, record):
        assert check_regression.check_regressions(record, copy.deepcopy(record)) == []

    def test_two_x_slowdown_fails(self, record):
        fresh = copy.deepcopy(record)
        fresh["kernel"]["k=1024"]["seconds_per_call"] *= 2.0
        violations = check_regression.check_regressions(record, fresh)
        assert len(violations) == 1
        assert "kernel.k=1024.seconds_per_call" in violations[0]
        assert "2.00x" in violations[0]

    def test_slowdown_within_budget_passes(self, record):
        fresh = copy.deepcopy(record)
        fresh["kernel"]["k=1024"]["seconds_per_call"] *= 1.4
        assert check_regression.check_regressions(record, fresh) == []

    def test_budget_is_configurable(self, record):
        fresh = copy.deepcopy(record)
        fresh["kernel"]["k=1024"]["seconds_per_call"] *= 1.4
        assert check_regression.check_regressions(record, fresh, max_slowdown=1.2)

    def test_speedup_below_floor_fails(self, record):
        fresh = copy.deepcopy(record)
        fresh["join_kernel_methods"]["k=8192"]["speedup_vs_dp"] = 1.5
        violations = check_regression.check_regressions(record, fresh)
        assert len(violations) == 1
        assert "floor" in violations[0]

    def test_faster_fresh_run_passes(self, record):
        fresh = copy.deepcopy(record)
        fresh["kernel"]["k=1024"]["seconds_per_call"] /= 10.0
        fresh["speedup_at_k12"] = 2000.0
        assert check_regression.check_regressions(record, fresh) == []

    def test_missing_timing_fails(self, record):
        fresh = copy.deepcopy(record)
        del fresh["kernel"]["k=64"]
        violations = check_regression.check_regressions(record, fresh)
        assert any("missing" in v and "k=64" in v for v in violations)

    def test_missing_floored_ratio_fails(self, record):
        fresh = copy.deepcopy(record)
        del fresh["speedup_at_k12"]
        violations = check_regression.check_regressions(record, fresh)
        assert any("speedup_at_k12" in v and "missing" in v for v in violations)

    def test_higher_is_better_rates_are_not_timings(self, record):
        # calls_per_second halving must NOT trip the timing check (the
        # matching seconds_per_call leaf is the canonical timing).
        fresh = copy.deepcopy(record)
        fresh["kernel"]["k=64"]["calls_per_second"] /= 2.0
        assert check_regression.check_regressions(record, fresh) == []

    def test_baseline_without_floors_only_checks_timings(self, record):
        del record["floors"]
        fresh = copy.deepcopy(record)
        fresh["speedup_at_k12"] = 0.1  # no floor -> not gated
        assert check_regression.check_regressions(record, fresh) == []


class TestAgainstCommittedBaseline:
    """The acceptance-criterion demo, against the real committed record."""

    @pytest.fixture
    def baseline(self) -> dict:
        with open(REPO_ROOT / "BENCH_counting.json", encoding="utf-8") as f:
            return json.load(f)

    def test_baseline_passes_against_itself(self, baseline):
        assert check_regression.check_regressions(baseline, copy.deepcopy(baseline)) == []

    def test_synthetic_two_x_slowdown_fails_the_gate(self, baseline):
        fresh = copy.deepcopy(baseline)
        fresh["kernel"]["k=8192"]["seconds_per_call"] *= 2.0
        violations = check_regression.check_regressions(baseline, fresh)
        assert violations, "a 2x quadrature-kernel slowdown must fail the gate"
        assert any("kernel.k=8192.seconds_per_call" in v for v in violations)

    def test_baseline_carries_the_quadrature_floors(self, baseline):
        # The kernel is quadrature at every k: its rows span k = 12..8192,
        # its speedup over subset enumeration stays floored, and no floor
        # or row names a deleted back end.
        assert {"k=12", "k=64", "k=256", "k=1024", "k=8192"} <= set(baseline["kernel"])
        assert baseline["floors"]["speedup_at_k12"] >= 1.0
        assert baseline["speedup_at_k12"] >= baseline["floors"]["speedup_at_k12"]
        paths = [path for path, _ in check_regression.iter_numeric_leaves(baseline)]
        for name in ("fft", "dp_", "join_kernel_methods", "heterogeneous"):
            assert not any(name in path for path in paths + list(baseline["floors"])), name


class TestMainCli:
    def _write(self, path: Path, record: dict) -> str:
        path.write_text(json.dumps(record), encoding="utf-8")
        return str(path)

    def test_exit_zero_on_pass_and_one_on_fail(self, tmp_path, record, capsys):
        base = self._write(tmp_path / "base.json", record)
        good = self._write(tmp_path / "good.json", copy.deepcopy(record))
        slow = copy.deepcopy(record)
        slow["kernel"]["k=1024"]["seconds_per_call"] *= 2.0
        bad = self._write(tmp_path / "bad.json", slow)

        assert check_regression.main(["--baseline", base, "--fresh", good]) == 0
        assert "passed" in capsys.readouterr().out
        assert check_regression.main(["--baseline", base, "--fresh", bad]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "kernel.k=1024.seconds_per_call" in out

    def test_max_slowdown_flag(self, tmp_path, record):
        base = self._write(tmp_path / "base.json", record)
        slow = copy.deepcopy(record)
        slow["kernel"]["k=1024"]["seconds_per_call"] *= 1.4
        fresh = self._write(tmp_path / "fresh.json", slow)
        assert check_regression.main(["--baseline", base, "--fresh", fresh]) == 0
        assert (
            check_regression.main(
                ["--baseline", base, "--fresh", fresh, "--max-slowdown", "1.2"]
            )
            == 1
        )
