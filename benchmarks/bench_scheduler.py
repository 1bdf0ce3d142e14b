"""Distributed sweep scheduler benchmarks: N-worker scaling efficiency.

Two entry points, like ``bench_join_kernel.py``:

* under pytest (``pytest benchmarks/bench_scheduler.py``) the cases
  assert the scheduler's contract directly;
* as a script (``python benchmarks/bench_scheduler.py --json
  BENCH_scheduler.json``) it times a 100-point grid drained serially
  and by 2- and 4-worker fleets, records the scaling ratios, and
  writes the ``floors`` table the CI regression gate
  (``benchmarks/check_regression.py --baseline BENCH_scheduler.json``)
  enforces.

What the floors measure — and deliberately do not measure: a grid
point's cost in production is dominated by the simulation itself
(tens of thousands of rounds, large ``k``), so the scheduler's job is
to keep N workers' *point latencies overlapped* while paying for lease
claims, heartbeats, frontier scans, and the final partial wave.  That
overlap efficiency is a property of the scheduler; how far CPU-bound
points scale is a property of the host's core count, which CI runners
do not guarantee (some expose a single core, where a compute-bound
4-worker drain can never beat serial).  The benchmark therefore paces
every point with a fixed deterministic latency around a real — but
tiny — counting run: the science stays real and byte-comparable, the
wall-time is dominated by the pacing, and the measured speedup is the
scheduler's overlap efficiency on any host.  A 4-worker fleet must
drain the 100-point grid >= 2.5x faster than the serial path and 2
workers >= 1.3x (ideal: 4x / 2x; the gap is lease traffic plus the
final wave).  If the scheduler ever serializes its workers — a lease
bottleneck, a global lock, workers scanning instead of executing —
these ratios collapse to ~1 and the gate fails.

Every drain happens in a *fresh* store, and the benchmark asserts the
stores' ``results/`` trees are byte-identical before reporting any
timing: parallelism that changed the science would be worse than no
parallelism.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
import time
from pathlib import Path

from repro.obs import monotonic as obs_monotonic
from repro.scenario import ScenarioSpec, register_engine
from repro.scenario.engines import ENGINES
from repro.sched import GridSpec, run_grid
from repro.store import ResultStore

GRID_K = 8
GRID_N = 8_000
GRID_ROUNDS = 25
GRID_TRIALS = 1
#: Wall-clock stand-in for a production-scale point (a k = 8192 point
#: runs for minutes; 80 ms keeps the whole benchmark under ~20 s while
#: still dwarfing the per-point scheduler overhead being measured).
POINT_LATENCY = 0.08
GAMMA_VALUES = [round(0.01 + 0.004 * i, 3) for i in range(10)]
ALPHA_VALUES = [round(0.5 + 0.1 * i, 1) for i in range(10)]

#: Required drain speedups over the serial (workers=0) path on the same
#: machine.  Ideal is the worker count; the floors leave room for lease
#: traffic, process start-up, and the final partial wave while still
#: failing if the scheduler ever serializes its workers.
TWO_WORKER_SPEEDUP_FLOOR = 1.3
FOUR_WORKER_SPEEDUP_FLOOR = 2.5

WORKER_COUNTS = (2, 4)
#: Short TTL keeps the benchmark honest about heartbeat traffic; no
#: lease ever actually goes stale here (points take ~100 ms).
BENCH_TTL = 10.0


class _PacedSimulator:
    """A counting simulator that takes a fixed wall-time per run.

    The sleep happens *before* the delegated run and touches no RNG, so
    results are bit-identical to the unpaced engine — only the wall
    clock (what a scheduler benchmark needs) changes.
    """

    def __init__(self, inner, latency: float) -> None:
        self._inner = inner
        self._latency = latency

    def run(self, rounds: int, **run_kwargs):
        time.sleep(self._latency)
        return self._inner.run(rounds, **run_kwargs)


def _build_paced_counting(algorithm, demand, feedback, *, latency: float = POINT_LATENCY, **kwargs):
    return _PacedSimulator(ENGINES.make("counting", algorithm=algorithm, demand=demand,
                                        feedback=feedback, **kwargs), latency)


# Registered at import time: the orchestrator forks its workers, so the
# registration is inherited (this bench, like multi-machine use of a
# custom engine, relies on every worker importing the same plugins).
register_engine("paced_counting", _build_paced_counting, allow_overwrite=True)


def _base_spec() -> ScenarioSpec:
    return ScenarioSpec(
        algorithm={"name": "ant", "params": {"gamma": 0.025}},
        demand={"name": "powerlaw", "params": {"n": GRID_N, "k": GRID_K, "alpha": 1.0}},
        feedback={"name": "exact"},
        engine={"name": "paced_counting"},
        rounds=GRID_ROUNDS,
        seed=7,
        label="sched-bench",
    )


def _bench_grid(gammas=GAMMA_VALUES, alphas=ALPHA_VALUES) -> GridSpec:
    return GridSpec(
        spec=_base_spec(),
        axes=[
            {"parameter": "algorithm.gamma", "values": list(gammas)},
            {"parameter": "demand.alpha", "values": list(alphas)},
        ],
        trials=GRID_TRIALS,
    )


def _results_tree_hashes(store: ResultStore) -> dict[str, str]:
    """``relative path -> sha256`` of every file under ``results/``."""
    hashes = {}
    for path in sorted(store.results_dir.rglob("*")):
        if path.is_file():
            rel = str(path.relative_to(store.results_dir))
            hashes[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def _drain(grid: GridSpec, root: Path, workers: int) -> tuple[float, ResultStore]:
    """Drain ``grid`` into a fresh store; returns (seconds, store)."""
    store = ResultStore(root)
    t0 = obs_monotonic()
    status = run_grid(store, grid, workers=workers, ttl=BENCH_TTL)
    elapsed = obs_monotonic() - t0
    assert status["done"], f"{workers}-worker drain left the grid unfinished: {status}"
    return elapsed, store


def _scaling_comparison(grid: GridSpec | None = None) -> dict:
    """Serial vs 2- and 4-worker drains of the same grid in fresh stores.

    Asserts byte-identical ``results/`` trees across every drain before
    reporting timings, then asserts the scaling floors.
    """
    if grid is None:
        grid = _bench_grid()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        t_serial, serial_store = _drain(grid, tmp / "serial", workers=0)
        reference = _results_tree_hashes(serial_store)
        assert reference, "serial drain committed nothing"
        row = {
            "points": grid.n_points,
            "trials_per_point": grid.trials,
            "rounds": grid.rounds,
            "point_latency_seconds_floor": POINT_LATENCY,
            "serial_seconds": t_serial,
        }
        for workers in WORKER_COUNTS:
            t_n, store_n = _drain(grid, tmp / f"w{workers}", workers=workers)
            assert _results_tree_hashes(store_n) == reference, (
                f"{workers}-worker drain produced a results/ tree that is not "
                "byte-identical to the serial drain"
            )
            speedup = t_serial / t_n
            row[f"workers{workers}_seconds"] = t_n
            row[f"speedup_{workers}workers"] = speedup
            row[f"efficiency_{workers}workers"] = speedup / workers
    assert row["speedup_2workers"] >= TWO_WORKER_SPEEDUP_FLOOR, (
        f"2-worker drain only {row['speedup_2workers']:.2f}x over serial"
    )
    assert row["speedup_4workers"] >= FOUR_WORKER_SPEEDUP_FLOOR, (
        f"4-worker drain only {row['speedup_4workers']:.2f}x over serial"
    )
    return row


# ----------------------------------------------------------------------
# pytest cases


def test_parallel_drain_is_byte_identical_to_serial():
    """Small grid: a 2-worker drain must byte-match the serial one."""
    grid = _bench_grid(gammas=GAMMA_VALUES[:2], alphas=ALPHA_VALUES[:3])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _, serial_store = _drain(grid, tmp / "serial", workers=0)
        _, par_store = _drain(grid, tmp / "par", workers=2)
        assert _results_tree_hashes(par_store) == _results_tree_hashes(serial_store)


def test_four_worker_scaling_floor():
    """The full 100-point grid meets the committed scaling floors."""
    _scaling_comparison()


# ----------------------------------------------------------------------
# Standalone recorder (CI writes the benchmark record with this)


def collect() -> dict:
    record: dict = {"scheduler": {"grid100": _scaling_comparison()}}
    record["floors"] = {
        "scheduler.grid100.speedup_2workers": TWO_WORKER_SPEEDUP_FLOOR,
        "scheduler.grid100.speedup_4workers": FOUR_WORKER_SPEEDUP_FLOOR,
    }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default="BENCH_scheduler.json",
                        help="output path for the benchmark record")
    args = parser.parse_args(argv)
    record = collect()
    with open(args.json, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    row = record["scheduler"]["grid100"]
    print(
        f"{row['points']}-point grid: serial {row['serial_seconds']:.2f}s, "
        f"2 workers {row['speedup_2workers']:.2f}x, "
        f"4 workers {row['speedup_4workers']:.2f}x "
        f"({100 * row['efficiency_4workers']:.0f}% efficiency)"
    )
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
