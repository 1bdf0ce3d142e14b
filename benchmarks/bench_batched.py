"""Counting-engine batching benchmarks: B trials per vectorized step.

Two entry points, mirroring ``bench_join_kernel.py``:

* under pytest (``pytest benchmarks/bench_batched.py``) each comparison
  is a test case that asserts its speedup floor;
* as a script (``python benchmarks/bench_batched.py --json
  BENCH_counting.json``) it times the same cases and **merges** a
  ``batched_engine`` section (plus its floors) into the benchmark record
  at that path — CI runs it right after ``bench_join_kernel.py`` against
  the same fresh JSON, so ``check_regression.py``'s coverage rule sees
  one complete record.  The recorder asserts no floor: the gate
  enforces the committed baseline's floors and prints every violation,
  so one slow row cannot hide the others.

Every comparison times the same trials run one at a time (each a
one-lane ``CountingSimulator.run``) against the same trials advanced as
one batch.  At B = 16 lanes and k = 256 tasks, batched aggregate
throughput (lane-rounds per second) must be at least
``BATCHED_SPEEDUP_FLOOR``x the one-at-a-time runs'.  The precise-sigmoid
scenario carries that floor: its phase structure (2 draw rounds per
2m-round phase, the rest pure vectorized bookkeeping) is where stacking
trials pays most.  Algorithm Ant at the same size is reported too, with
a modest floor — batching shares its per-round bookkeeping but not its
per-lane binomial draws.  The ``default_path`` row runs the paper's
k = 8 colony through ``run_trials``' defaults, so a change that stops
batching by default fails its floor.

Every comparison, recorded or tested, asserts bit-identical per-trial
statistics between the two paths — a benchmark that got faster by
drifting off the one-lane trajectories must fail loudly.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from repro.core.ant import AntAlgorithm
from repro.core.precise_sigmoid import PreciseSigmoidAlgorithm
from repro.env.critical import lambda_for_critical_value
from repro.env.demands import uniform_demands
from repro.env.feedback import SigmoidFeedback
from repro.obs import monotonic as obs_monotonic
from repro.sim.batched import BatchedCountingSimulator
from repro.sim.counting import CountingSimulator
from repro.sim.runner import run_trials

#: Lanes per batch — the engine's DEFAULT_BATCH and the acceptance
#: operating point (B = 16, k = 256).
BATCH = 16
K = 256
N = 100 * K  # per-task demand n/(2k) = 50: small loads, inversion-sampler regime

#: Aggregate-throughput floor for the precise-sigmoid scenario (the
#: batched engine's acceptance criterion).  Measured 5.4-8.2x against
#: one-lane runs on the reference machine (a 2-vCPU Xeon VM).
BATCHED_SPEEDUP_FLOOR = 5.0
#: Ant floor: binomial draws cost about the same per lane on both paths
#: at k = 256, so batching's ceiling is ~2x here (measured 1.8-2.3x);
#: the floor only guards against the batched path becoming a
#: pessimization.
ANT_SPEEDUP_FLOOR = 1.5
#: ``run_trials``' default path on the k = 8 colony: 16 trials batched
#: by default against 16 one-lane runs.  Floored at ~70% of the ratio
#: measured on the reference machine (2.5-3.4x); running the trials one
#: at a time reads 1.0x.
DEFAULT_PATH_K = 8
DEFAULT_PATH_SPEEDUP_FLOOR = 2.0

PS_ROUNDS = 1000
ANT_ROUNDS = 400
DEFAULT_PATH_ROUNDS = 500
REPEATS = 3


def _seeds() -> list[int]:
    """Trial seeds exactly as ``run_trials(seed=0)`` derives them."""
    root = np.random.SeedSequence(0)
    return [int(s.generate_state(1)[0]) for s in root.spawn(BATCH)]


def _ps_factory(seed: int) -> CountingSimulator:
    demand = uniform_demands(n=N, k=K)
    lam = lambda_for_critical_value(demand, gamma_star=0.01)
    return CountingSimulator(
        PreciseSigmoidAlgorithm(gamma=0.05, eps=0.5), demand, SigmoidFeedback(lam), seed=seed
    )


def _ant_factory(seed: int) -> CountingSimulator:
    demand = uniform_demands(n=N, k=K)
    lam = lambda_for_critical_value(demand, gamma_star=0.01)
    return CountingSimulator(AntAlgorithm(gamma=0.025), demand, SigmoidFeedback(lam), seed=seed)


def _colony_factory(seed: int) -> CountingSimulator:
    """The paper's k = 8 colony (n = 8000, calibrated sigmoid noise)."""
    demand = uniform_demands(n=1000 * DEFAULT_PATH_K, k=DEFAULT_PATH_K)
    lam = lambda_for_critical_value(demand, gamma_star=0.01)
    return CountingSimulator(AntAlgorithm(gamma=0.025), demand, SigmoidFeedback(lam), seed=seed)


def _comparison(factory, rounds: int, batched=None, k: int = K) -> dict:
    """One-lane vs batched wall time over the same ``BATCH`` trials.

    Fresh simulators every repetition, both paths reading the process's
    join store (the warm-up and first repetition fill it, so neither
    side's best time pays a kernel miss), interleaved best-of-``REPEATS``
    so a descheduled repetition cannot flip the ratio, and a bit-
    identity assertion on the per-trial statistics.  ``batched`` runs
    the trials the batched way (default: one explicit B-lane batch).
    """
    seeds = _seeds()

    def serial():
        return [factory(s).run(rounds) for s in seeds]

    if batched is None:

        def batched():
            return BatchedCountingSimulator([factory(s) for s in seeds]).run(rounds)

    # Warm-up: imports, scipy machinery, demand/lambda construction.
    warm = min(rounds, 64)
    factory(seeds[0]).run(warm)
    BatchedCountingSimulator([factory(s) for s in seeds[:2]]).run(warm)

    t_serial = t_batched = float("inf")
    serial_out = batched_out = None
    for _ in range(REPEATS):
        t0 = obs_monotonic()
        serial_out = serial()
        t_serial = min(t_serial, obs_monotonic() - t0)
        t0 = obs_monotonic()
        batched_out = batched()
        t_batched = min(t_batched, obs_monotonic() - t0)

    for lane_serial, lane_batched in zip(serial_out, batched_out):
        assert lane_serial.metrics.cumulative_regret == lane_batched.metrics.cumulative_regret
        assert np.array_equal(lane_serial.metrics.final_loads, lane_batched.metrics.final_loads)

    aggregate = BATCH * rounds
    speedup = t_serial / t_batched
    return {
        "batch": BATCH,
        "k": k,
        "n": int(factory(seeds[0]).n),
        "rounds": rounds,
        "serial_seconds": t_serial,
        "batched_seconds": t_batched,
        "serial_rounds_per_second": aggregate / t_serial,
        "batched_rounds_per_second": aggregate / t_batched,
        "speedup": speedup,
    }


def _default_path_comparison() -> dict:
    """16 trials through ``run_trials``' defaults vs 16 one-lane runs."""

    def batched():
        summary = run_trials(_colony_factory, DEFAULT_PATH_ROUNDS, BATCH, seed=0)
        return summary.results

    return _comparison(_colony_factory, DEFAULT_PATH_ROUNDS, batched=batched, k=DEFAULT_PATH_K)


# ----------------------------------------------------------------------
# pytest cases


def _assert_floor(row: dict, floor: float, label: str) -> None:
    assert row["speedup"] >= floor, (
        f"batched {label} engine only {row['speedup']:.2f}x over one-lane runs at "
        f"B={BATCH}, k={row['k']} (floor {floor}x)"
    )


def test_batched_precise_sigmoid_speedup_k256():
    """The acceptance criterion: >= 5x aggregate rounds/s at B=16, k=256."""
    _assert_floor(_comparison(_ps_factory, PS_ROUNDS), BATCHED_SPEEDUP_FLOOR, "precise_sigmoid")


def test_batched_ant_speedup_k256():
    """Ant is kernel-miss-bound at k=256; batching must still clearly win."""
    _assert_floor(_comparison(_ant_factory, ANT_ROUNDS), ANT_SPEEDUP_FLOOR, "ant")


def test_run_trials_batches_by_default_k8():
    """The default multi-trial path batches the paper's k = 8 colony."""
    _assert_floor(_default_path_comparison(), DEFAULT_PATH_SPEEDUP_FLOOR, "default-path")


# ----------------------------------------------------------------------
# Standalone recorder (CI merges this into the fresh benchmark record)


def collect() -> dict:
    """The ``batched_engine`` section and its regression floors."""
    ps = _comparison(_ps_factory, PS_ROUNDS)
    ant = _comparison(_ant_factory, ANT_ROUNDS)
    default_path = _default_path_comparison()
    return {
        "batched_engine": {
            "batch": BATCH,
            "precise_sigmoid": {f"k={K}": ps},
            "ant": {f"k={K}": ant},
            "default_path": {f"k={DEFAULT_PATH_K}": default_path},
        },
        "floors": {
            f"batched_engine.precise_sigmoid.k={K}.speedup": BATCHED_SPEEDUP_FLOOR,
            f"batched_engine.ant.k={K}.speedup": ANT_SPEEDUP_FLOOR,
            f"batched_engine.default_path.k={DEFAULT_PATH_K}.speedup": (
                DEFAULT_PATH_SPEEDUP_FLOOR
            ),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json",
        default="BENCH_counting.json",
        help="benchmark record to merge the batched_engine section into",
    )
    args = parser.parse_args(argv)
    fresh = collect()

    # Merge, don't overwrite: CI runs bench_join_kernel.py into the same
    # file first, and check_regression.py requires every baseline path to
    # exist in the one fresh record.
    record: dict = {}
    if os.path.exists(args.json):
        with open(args.json, encoding="utf-8") as f:
            record = json.load(f)
    record["batched_engine"] = fresh["batched_engine"]
    record.setdefault("floors", {}).update(fresh["floors"])
    with open(args.json, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)

    for label, k in (("precise_sigmoid", K), ("ant", K), ("default_path", DEFAULT_PATH_K)):
        row = fresh["batched_engine"][label][f"k={k}"]
        print(
            f"batched {label} at B={BATCH}, k={k}: "
            f"one-lane {row['serial_rounds_per_second']:.0f} rounds/s, "
            f"batched {row['batched_rounds_per_second']:.0f} rounds/s "
            f"({row['speedup']:.2f}x)"
        )
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
