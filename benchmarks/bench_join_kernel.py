"""Join-kernel and many-task counting-engine benchmarks.

Two entry points:

* under pytest-benchmark (``pytest benchmarks/bench_join_kernel.py
  --benchmark-only``) each timing is a named benchmark case;
* as a script (``python benchmarks/bench_join_kernel.py --json
  BENCH_counting.json``) it times the same cases without the plugin and
  records kernel + counting-engine throughput to a JSON file, which CI
  uploads so the performance trajectory of the hot path is tracked.

Both modes assert the acceptance criteria accumulated so far: the
exact (Gauss-Legendre quadrature) kernel is >= 10x faster than subset
enumeration at k = 12; an exact counting run at k = 64 (impossible
under the old ``2^k`` enumerator) completes, and so does one at
k = 8192; and the process's join-distribution store amortizes kernel
work across the trials of a multi-trial scenario run.  The ``kernel`` rows
time the one kernel from k = 12 to k = 8192 (the sub-millisecond
k = 12 and k = 64 calls in samples of many calls); the regression gate
holds each to its recorded time.

The JSON record also carries a ``floors`` table mapping dotted record
paths to the minimum acceptable value of each speedup ratio; the CI
benchmark-regression gate (``benchmarks/check_regression.py``) reads it
from the committed baseline and fails the build when a fresh run drops
below a floor or any timing regresses past the slowdown budget.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro.core.ant import AntAlgorithm
from repro.env.critical import lambda_for_critical_value
from repro.env.demands import powerlaw_demands, uniform_demands
from repro.env.feedback import SigmoidFeedback
from repro.obs import get_registry
from repro.obs import monotonic as obs_monotonic
from repro.scenario import ScenarioFactory, ScenarioSpec
from repro.sim.counting import CountingSimulator, clear_join_cache
from repro.util.mathx import enumerate_subset_join_probabilities, exact_join_probabilities

SPEEDUP_FLOOR = 10.0  # required kernel speedup over enumeration at k = 12
#: Sharing the join store across trials must not meaningfully slow a
#: multi-trial run (the measured effect is a ~1.2x speedup, but it rides
#: on only ~13% of kernel calls, so wall-time noise could eat it on a
#: loaded CI machine — the hard, deterministic guarantee is the
#: amortization fraction below).
SHARED_CACHE_SPEEDUP_FLOOR = 0.8
#: Fraction of per-trial kernel calls that sharing the store across
#: trials saves.  Unlike the wall-time ratio this is structural (it
#: depends only on the trajectories, not the machine), so the
#: regression gate pins it.
SHARED_CACHE_AMORTIZATION_FLOOR = 0.05
ENUM_K = 12
KERNEL_KS = (12, 64, 256, 1024, 8192)
#: Kernel sizes whose single call takes well under a millisecond: each
#: of their samples times a run of calls lasting at least
#: ``MIN_SAMPLE_SECONDS``, so a sample spans more than timer jitter and
#: a passing scheduler hiccup.
MULTI_CALL_KERNEL_KS = (12, 64)
MIN_SAMPLE_SECONDS = 0.01
ENGINE_KS = (4, 64, 256)
ENGINE_ROUNDS = 500
XL_ENGINE_K = 8192
XL_ENGINE_ROUNDS = 60
SHARED_SWEEP_K = 1024
SHARED_SWEEP_TRIALS = 3
SHARED_SWEEP_ROUNDS = 200


def _kernel_inputs(k: int) -> np.ndarray:
    return np.random.default_rng(k).random(k)


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = obs_monotonic()
        fn()
        best = min(best, obs_monotonic() - t0)
    return best


def _time_per_call(fn, repeats: int, min_sample: float = MIN_SAMPLE_SECONDS) -> float:
    """Best-of-``repeats`` per-call time of ``fn()``, each sample timing
    enough back-to-back calls (doubled until one sample lasts
    ``min_sample`` seconds) to average out sub-millisecond noise."""
    calls = 1
    while True:
        t0 = obs_monotonic()
        for _ in range(calls):
            fn()
        if obs_monotonic() - t0 >= min_sample:
            break
        calls *= 2

    def sample() -> None:
        for _ in range(calls):
            fn()

    return _time(sample, repeats) / calls


def _engine_for(k: int) -> CountingSimulator:
    demand = uniform_demands(n=1000 * k, k=k)
    lam = lambda_for_critical_value(demand, gamma_star=0.01)
    return CountingSimulator(
        AntAlgorithm(gamma=0.025), demand, SigmoidFeedback(lam), seed=0
    )


# ----------------------------------------------------------------------
# pytest-benchmark cases


def test_enumeration_baseline_k12(benchmark):
    u = _kernel_inputs(ENUM_K)
    pi = benchmark(enumerate_subset_join_probabilities, u)
    assert pi.shape == (ENUM_K + 1,)


def test_exact_kernel_k12(benchmark):
    u = _kernel_inputs(ENUM_K)
    pi = benchmark(exact_join_probabilities, u)
    np.testing.assert_allclose(pi, enumerate_subset_join_probabilities(u), atol=1e-12)


def test_exact_kernel_k64(benchmark):
    u = _kernel_inputs(64)
    pi = benchmark(exact_join_probabilities, u)
    assert abs(pi.sum() - 1.0) < 1e-12


def test_exact_kernel_k256(benchmark):
    u = _kernel_inputs(256)
    pi = benchmark(exact_join_probabilities, u)
    assert abs(pi.sum() - 1.0) < 1e-12


def test_kernel_speedup_over_enumeration_k12():
    u = _kernel_inputs(ENUM_K)
    t_enum = _time(lambda: enumerate_subset_join_probabilities(u), repeats=3)
    t_kernel = _time_per_call(lambda: exact_join_probabilities(u), repeats=20)
    speedup = t_enum / t_kernel
    assert speedup >= SPEEDUP_FLOOR, (
        f"kernel only {speedup:.1f}x faster than enumeration at k={ENUM_K}"
    )


def test_counting_engine_k64_exact_run(benchmark):
    """An exact k = 64 counting run — impossible under subset enumeration."""
    out = benchmark.pedantic(
        lambda: _engine_for(64).run(ENGINE_ROUNDS), rounds=1, iterations=1
    )
    assert out.k == 64 and out.rounds == ENGINE_ROUNDS


def _xl_engine_run() -> dict:
    """An exact k = 8192 counting run — the scale the loop-free
    quadrature kernel unlocks."""
    demand = powerlaw_demands(n=100 * XL_ENGINE_K, k=XL_ENGINE_K, alpha=1.0)
    lam = lambda_for_critical_value(demand, gamma_star=0.01)
    sim = CountingSimulator(AntAlgorithm(gamma=0.025), demand, SigmoidFeedback(lam), seed=0)
    t0 = obs_monotonic()
    out = sim.run(XL_ENGINE_ROUNDS)
    elapsed = obs_monotonic() - t0
    assert out.k == XL_ENGINE_K and out.rounds == XL_ENGINE_ROUNDS
    return {
        "n": sim.n,
        "rounds": XL_ENGINE_ROUNDS,
        "seconds": elapsed,
        "rounds_per_second": XL_ENGINE_ROUNDS / elapsed,
    }


def _shared_sweep_spec() -> ScenarioSpec:
    """Heterogeneous many-task scenario under exact-binary feedback: the
    integer deficit signatures repeat *across* trials, which is exactly
    the reuse a cross-trial cache can and a per-trial cache cannot see."""
    return ScenarioSpec(
        algorithm={"name": "ant", "params": {"gamma": 0.025}},
        demand={
            "name": "powerlaw",
            "params": {"n": 100 * SHARED_SWEEP_K, "k": SHARED_SWEEP_K, "alpha": 1.0},
        },
        feedback={"name": "exact"},
        engine={"name": "counting"},
        rounds=SHARED_SWEEP_ROUNDS,
        seed=7,
    )


def _shared_cache_comparison() -> dict:
    """Run the same multi-trial scenario with the join store emptied
    before every trial (per-trial caching) and emptied once before the
    run (shared across trials); assert bit-identical statistics and
    report how much kernel work sharing saved.

    Both sides run the trials one at a time, as process workers do, on
    the seeds ``run_trials`` derives: in a batch the lanes' repeats
    within a round would hide the cross-trial ones."""
    spec = _shared_sweep_spec()
    factory = ScenarioFactory(spec)
    root = np.random.SeedSequence(spec.seed)
    seeds = [int(s.generate_state(1)[0]) for s in root.spawn(SHARED_SWEEP_TRIALS)]
    misses = get_registry().counter("repro_pi_cache_lookups_total", tier="miss")

    def run(clear_every_trial: bool) -> tuple[np.ndarray, int, float]:
        clear_join_cache()
        before = misses.value
        t0 = obs_monotonic()
        regrets = []
        for seed in seeds:
            if clear_every_trial:
                clear_join_cache()
            result = factory(seed).run(spec.rounds, **spec.run_params)
            regrets.append(result.metrics.average_regret)
        return np.array(regrets), int(misses.value - before), obs_monotonic() - t0

    solo_regrets, solo_misses, t_solo = run(clear_every_trial=True)
    shared_regrets, shared_misses, t_shared = run(clear_every_trial=False)
    assert np.array_equal(solo_regrets, shared_regrets), (
        "shared-store run is not bit-identical to the per-trial-cache run"
    )
    assert shared_misses < solo_misses, "no cross-trial signature ever repeated"
    amortized = 1.0 - shared_misses / solo_misses
    assert amortized >= SHARED_CACHE_AMORTIZATION_FLOOR, (
        f"sharing the join store saved only {amortized:.1%} of kernel calls"
    )
    speedup = t_solo / t_shared
    assert speedup >= SHARED_CACHE_SPEEDUP_FLOOR, (
        f"sharing the join store slowed the run down ({speedup:.2f}x)"
    )
    return {
        "k": SHARED_SWEEP_K,
        "trials": SHARED_SWEEP_TRIALS,
        "rounds": SHARED_SWEEP_ROUNDS,
        "per_trial_cache_seconds": t_solo,
        "shared_cache_seconds": t_shared,
        "speedup": speedup,
        "shared_cache_hits": solo_misses - shared_misses,
        "shared_cache_misses": shared_misses,
        "cross_trial_amortization": amortized,
    }


def test_counting_engine_k8192_exact_run():
    row = _xl_engine_run()
    assert row["rounds"] == XL_ENGINE_ROUNDS


def test_shared_pi_cache_amortizes_across_trials():
    _shared_cache_comparison()


# ----------------------------------------------------------------------
# Standalone recorder (CI writes the benchmark record with this)


def collect() -> dict:
    record: dict = {"speedup_floor": SPEEDUP_FLOOR, "kernel": {}, "counting_engine": {}}

    u12 = _kernel_inputs(ENUM_K)
    t_enum = _time(lambda: enumerate_subset_join_probabilities(u12), repeats=3)
    record["enumeration"] = {"k": ENUM_K, "seconds_per_call": t_enum}

    for k in KERNEL_KS:
        u = _kernel_inputs(k)
        timer = _time_per_call if k in MULTI_CALL_KERNEL_KS else _time
        t = timer(lambda: exact_join_probabilities(u), repeats=20)
        record["kernel"][f"k={k}"] = {"seconds_per_call": t, "calls_per_second": 1.0 / t}

    speedup = t_enum / record["kernel"][f"k={ENUM_K}"]["seconds_per_call"]
    record["speedup_at_k12"] = speedup
    assert speedup >= SPEEDUP_FLOOR, f"speedup {speedup:.1f}x below {SPEEDUP_FLOOR}x floor"

    for k in ENGINE_KS:
        sim = _engine_for(k)
        t0 = obs_monotonic()
        out = sim.run(ENGINE_ROUNDS)
        elapsed = obs_monotonic() - t0
        assert out.rounds == ENGINE_ROUNDS
        record["counting_engine"][f"k={k}"] = {
            "n": sim.n,
            "rounds": ENGINE_ROUNDS,
            "seconds": elapsed,
            "rounds_per_second": ENGINE_ROUNDS / elapsed,
        }

    # The exact k = 8192 scenario, and the join store's amortization of
    # kernel work across trials.
    record["counting_engine_xl"] = {f"k={XL_ENGINE_K}": _xl_engine_run()}
    record["shared_pi_cache_sweep"] = {f"k={SHARED_SWEEP_K}": _shared_cache_comparison()}

    # Floors consumed by benchmarks/check_regression.py: dotted record
    # paths -> minimum acceptable value in a fresh CI run.
    record["floors"] = {
        "speedup_at_k12": SPEEDUP_FLOOR,
        f"shared_pi_cache_sweep.k={SHARED_SWEEP_K}.speedup": SHARED_CACHE_SPEEDUP_FLOOR,
        f"shared_pi_cache_sweep.k={SHARED_SWEEP_K}.cross_trial_amortization": (
            SHARED_CACHE_AMORTIZATION_FLOOR
        ),
    }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default="BENCH_counting.json",
                        help="output path for the benchmark record")
    args = parser.parse_args(argv)
    record = collect()
    with open(args.json, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    print(f"speedup over enumeration at k={ENUM_K}: {record['speedup_at_k12']:.0f}x")
    for key, row in record["kernel"].items():
        print(f"join kernel {key}: {1e3 * row['seconds_per_call']:.3f} ms/call")
    for key, row in record["counting_engine"].items():
        print(f"counting engine {key}: {row['rounds_per_second']:.0f} rounds/s")
    xl = record["counting_engine_xl"][f"k={XL_ENGINE_K}"]
    print(f"exact k={XL_ENGINE_K} engine: {xl['rounds_per_second']:.1f} rounds/s")
    sh = record["shared_pi_cache_sweep"][f"k={SHARED_SWEEP_K}"]
    print(
        f"join store shared over {sh['trials']} trials at k={SHARED_SWEEP_K}: "
        f"{sh['speedup']:.2f}x, {sh['shared_cache_misses']} kernel calls, "
        f"{sh['shared_cache_hits']} saved "
        f"({100 * sh['cross_trial_amortization']:.0f}% amortized)"
    )
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
