"""Observability overhead benchmark: instrumented vs traced engine runs.

The obs spine (:mod:`repro.obs`) promises to be *nearly free*: metric
counters are always on (one lock-guarded increment per cache lookup)
and installing a tracer — which appends a canonical-JSON line per
engine span, kernel miss, and cache-stats event — must cost at most a
few percent of wall time on a realistic counting run.

Two entry points, mirroring the other benchmark modules:

* under pytest (``pytest benchmarks/bench_obs.py``) the comparison is an
  assertion-bearing test case: traced throughput must stay above
  ``OBS_EFFICIENCY_FLOOR`` of the bare (metrics-only) run, and the two
  runs' statistics must be bit-identical — instrumentation that speeds
  up or slows down by *changing the computation* must fail loudly;
* as a script (``python benchmarks/bench_obs.py --json BENCH_obs.json``)
  it writes the ``obs_overhead`` section plus its floor so
  ``check_regression.py`` gates the ratio in CI.

The workload is an Ant run at k = 64: every round touches the pi-cache
counters (the hottest instrumented path), early rounds miss the
join-kernel cache (each miss emits a span), and the run itself is
wrapped in a ``counting_run`` span — i.e. every obs code path is
exercised at its real-world frequency, not synthetically.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

import numpy as np

from repro.core.ant import AntAlgorithm
from repro.env.critical import lambda_for_critical_value
from repro.env.demands import uniform_demands
from repro.env.feedback import SigmoidFeedback
from repro.obs import monotonic as obs_monotonic
from repro.obs import trace_to
from repro.sim.counting import CountingSimulator, clear_join_cache

K = 64
N = 100 * K
ROUNDS = 3000
REPEATS = 5
SEED = 7

#: Minimum traced/bare throughput ratio (<= 5% overhead).  Measured
#: ~0.99 on the reference machine: trace lines are written only on
#: kernel misses and span boundaries, so the steady state pays one
#: counter increment per round and nothing else.
OBS_EFFICIENCY_FLOOR = 0.95


def _factory() -> CountingSimulator:
    demand = uniform_demands(n=N, k=K)
    lam = lambda_for_critical_value(demand, gamma_star=0.01)
    return CountingSimulator(AntAlgorithm(gamma=0.025), demand, SigmoidFeedback(lam), seed=SEED)


def _comparison() -> dict:
    """Bare vs traced wall time of the same run, paired per repetition.

    Fresh simulators and an empty join store for every run (cold caches
    on both paths, so the traced run traces every kernel miss the bare
    run pays) and a fresh trace file per traced repetition (appending to
    one growing file would bill later repetitions for earlier lines).
    The efficiency is the *best paired ratio* across repetitions: bare
    and traced runs alternate back-to-back, so one repetition where
    traced keeps up with bare proves the instrumentation is not
    inherently costly — whereas a ratio of two independent minima is
    at the mercy of machine-load drift between the two sweeps (this
    gate runs on shared CI runners).
    """
    # Warm-up: imports, scipy machinery, demand/lambda construction.
    _factory().run(min(ROUNDS, 64))

    bare_times: list[float] = []
    traced_times: list[float] = []
    bare_out = traced_out = None
    trace_lines = 0
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(REPEATS):
            clear_join_cache()
            t0 = obs_monotonic()
            bare_out = _factory().run(ROUNDS)
            bare_times.append(obs_monotonic() - t0)

            trace_path = Path(tmp) / f"rep{rep}.jsonl"
            sim = _factory()
            clear_join_cache()
            t0 = obs_monotonic()
            with trace_to(trace_path):
                traced_out = sim.run(ROUNDS)
            traced_times.append(obs_monotonic() - t0)
            trace_lines = sum(1 for _ in trace_path.open(encoding="utf-8"))

    # The null-overhead invariant, at benchmark scale: tracing never
    # changes the trajectory.
    assert bare_out.metrics.cumulative_regret == traced_out.metrics.cumulative_regret
    assert np.array_equal(bare_out.metrics.final_loads, traced_out.metrics.final_loads)

    t_bare = min(bare_times)
    t_traced = min(traced_times)
    efficiency = max(b / t for b, t in zip(bare_times, traced_times))
    assert efficiency >= OBS_EFFICIENCY_FLOOR, (
        f"traced run at {efficiency:.3f}x bare throughput "
        f"(floor {OBS_EFFICIENCY_FLOOR}) — obs instrumentation got expensive"
    )
    return {
        "k": K,
        "n": N,
        "rounds": ROUNDS,
        "bare_seconds": t_bare,
        "traced_seconds": t_traced,
        "trace_lines": trace_lines,
        "efficiency": efficiency,
    }


# ----------------------------------------------------------------------
# pytest case


def test_obs_overhead_within_budget():
    """Tracing costs <= 5% wall time and is byte-transparent to the run."""
    _comparison()


# ----------------------------------------------------------------------
# Standalone recorder (CI gates this against the committed BENCH_obs.json)


def collect() -> dict:
    """The ``obs_overhead`` section and its regression floor."""
    row = _comparison()
    return {
        "obs_overhead": {f"k={K}": row},
        "floors": {f"obs_overhead.k={K}.efficiency": OBS_EFFICIENCY_FLOOR},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json",
        default="BENCH_obs.json",
        help="benchmark record to write the obs_overhead section into",
    )
    args = parser.parse_args(argv)
    record = collect()
    with open(args.json, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)

    row = record["obs_overhead"][f"k={K}"]
    print(
        f"obs overhead at k={K}, rounds={ROUNDS}: bare {row['bare_seconds']:.3f}s, "
        f"traced {row['traced_seconds']:.3f}s ({row['trace_lines']} trace lines, "
        f"efficiency {row['efficiency']:.3f})"
    )
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
