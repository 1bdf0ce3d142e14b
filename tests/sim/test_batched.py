"""Batched-vs-scalar equivalence: bit-identity per lane, same law overall.

The counting engine's contract is strictly stronger than distributional
bisimulation: trial i of a :class:`BatchedCountingSimulator` run must be
**bit-identical** to the same trial run through the scalar reference
round programs (``tests/sim/serial_reference.py``) — same loads every
traced round, same regret sequence, same metrics, same final assignment —
because both consume the identical per-trial RNG substream with
identical call arguments.  The suite pins that at B = 1 (the path every
single ``CountingSimulator.run`` takes) and B = 5 for every supported
algorithm (ant / precise sigmoid / trivial, sigmoid and exact-binary
feedback, static and stepped populations, both join strategies), and
cross-checks the batch-level action distribution against the per-ant
Monte Carlo oracle at k = 64 in total-variation distance, reusing the
cross-engine suite's oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ant import AntAlgorithm
from repro.core.precise_sigmoid import PreciseSigmoidAlgorithm
from repro.core.trivial import TrivialAlgorithm
from repro.env.critical import lambda_for_critical_value
from repro.env.demands import uniform_demands
from repro.env.feedback import ExactBinaryFeedback, SigmoidFeedback
from repro.env.population import StepPopulation
from repro.exceptions import ConfigurationError
from repro.sim.batched import DEFAULT_BATCH, BatchedCountingSimulator
from repro.sim.counting import CountingSimulator, clear_join_cache
from repro.util.mathx import exact_join_probabilities

from tests.sim.serial_reference import run_serial
from tests.sim.test_cross_engine_equivalence import (
    per_ant_action_distribution,
    tv_distance,
)

N, K = 800, 8
ROUNDS = 200  # covers a full precise-sigmoid phase (m=41 -> 2m=82) twice
SEEDS = tuple(range(905, 905 + 5))


def _components(feedback: str = "sigmoid"):
    demand = uniform_demands(n=N, k=K)
    if feedback == "sigmoid":
        fb = SigmoidFeedback(lambda_for_critical_value(demand, gamma_star=0.01))
    else:
        fb = ExactBinaryFeedback()
    return demand, fb


def _factory(algorithm_factory, feedback="sigmoid", population=None, **engine_kwargs):
    def build(seed: int) -> CountingSimulator:
        demand, fb = _components(feedback)
        return CountingSimulator(
            algorithm_factory(), demand, fb, seed=seed, population=population, **engine_kwargs
        )

    return build


CONFIGS = {
    "ant": _factory(lambda: AntAlgorithm(gamma=0.05)),
    "ant_exact_binary": _factory(lambda: AntAlgorithm(gamma=0.05), feedback="binary"),
    "ant_per_ant_joins": _factory(
        lambda: AntAlgorithm(gamma=0.05), join_strategy="per_ant"
    ),
    "ant_step_population": _factory(
        lambda: AntAlgorithm(gamma=0.05),
        population=StepPopulation(steps=((0, N), (21, int(N * 0.85)), (61, N))),
    ),
    "ant_cache_off": _factory(lambda: AntAlgorithm(gamma=0.05), pi_cache=False),
    "precise_sigmoid": _factory(lambda: PreciseSigmoidAlgorithm(gamma=0.05, eps=0.5)),
    "trivial": _factory(lambda: TrivialAlgorithm()),
    "trivial_partial_join": _factory(
        lambda: TrivialAlgorithm(leave_probability=0.6, join_probability=0.7)
    ),
}


def _assert_results_bit_identical(serial, batched):
    ms, mb = serial.metrics, batched.metrics
    assert ms.rounds == mb.rounds
    assert ms.cumulative_regret == mb.cumulative_regret
    assert ms.regret_plus == mb.regret_plus
    assert ms.regret_near == mb.regret_near
    assert ms.regret_minus == mb.regret_minus
    assert ms.total_switches == mb.total_switches
    assert ms.max_abs_deficit == mb.max_abs_deficit
    assert ms.rounds_outside_band == mb.rounds_outside_band
    np.testing.assert_array_equal(ms.final_loads, mb.final_loads)
    np.testing.assert_array_equal(ms.final_deficits, mb.final_deficits)
    np.testing.assert_array_equal(serial.final_assignment, batched.final_assignment)
    assert serial.n_current == batched.n_current
    np.testing.assert_array_equal(serial.trace.rounds, batched.trace.rounds)
    np.testing.assert_array_equal(serial.trace.loads, batched.trace.loads)
    np.testing.assert_array_equal(serial.trace.regrets, batched.trace.regrets)


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_every_lane_matches_its_serial_trial(self, name):
        factory = CONFIGS[name]
        run_kwargs = dict(trace_stride=7, tail_window=13, burn_in=20)
        serial = [run_serial(factory(s), ROUNDS, **run_kwargs) for s in SEEDS]
        for batch in (1, len(SEEDS)):
            batched = []
            for start in range(0, len(SEEDS), batch):
                lanes = [factory(s) for s in SEEDS[start : start + batch]]
                batched += BatchedCountingSimulator(lanes).run(ROUNDS, **run_kwargs)
            assert len(batched) == len(SEEDS)
            for lane_serial, lane_batched in zip(serial, batched):
                _assert_results_bit_identical(lane_serial, lane_batched)

    def test_single_lane_batch_matches(self):
        # CountingSimulator.run is the one-lane batch.
        factory = CONFIGS["ant"]
        serial = run_serial(factory(17), 120)
        (batched,) = BatchedCountingSimulator([factory(17)]).run(120)
        _assert_results_bit_identical(serial, batched)
        _assert_results_bit_identical(serial, factory(17).run(120))

    @pytest.mark.parametrize("name", ["ant_step_population", "precise_sigmoid"])
    def test_small_tracker_blocks_match(self, name, monkeypatch):
        # Many evaluation blocks, cut by the round limit and by the row
        # limit, one of them straddling the burn-in: the folded totals
        # must not depend on where the blocks fall.
        import repro.sim.batched as batched_mod

        monkeypatch.setattr(batched_mod, "TRACKER_BLOCK_ROUNDS", 7)
        monkeypatch.setattr(batched_mod, "TRACKER_BLOCK_ENTRIES", 3 * 2 * K)
        factory = CONFIGS[name]
        run_kwargs = dict(trace_stride=5, burn_in=17)
        serial = [run_serial(factory(s), ROUNDS, **run_kwargs) for s in SEEDS[:2]]
        batched = BatchedCountingSimulator([factory(s) for s in SEEDS[:2]]).run(
            ROUNDS, **run_kwargs
        )
        for lane_serial, lane_batched in zip(serial, batched):
            _assert_results_bit_identical(lane_serial, lane_batched)

    def test_repeated_runs_are_reproducible(self):
        # Fresh lanes each time: the engine consumes the lanes' streams,
        # so reproducibility means rebuilding, not rerunning.
        factory = CONFIGS["precise_sigmoid"]
        first = BatchedCountingSimulator([factory(s) for s in SEEDS[:3]]).run(ROUNDS)
        second = BatchedCountingSimulator([factory(s) for s in SEEDS[:3]]).run(ROUNDS)
        for a, b in zip(first, second):
            _assert_results_bit_identical(a, b)


class TestActionDistributionOracle:
    def test_tv_distance_to_per_ant_oracle_at_k64(self):
        # The batch-level cache resolves each distinct signature through
        # the same exact kernel as the serial engine; its distribution
        # must match the per-ant Monte Carlo oracle in TV distance.
        k = 64
        demand = uniform_demands(n=1000 * k, k=k)
        lam = lambda_for_critical_value(demand, gamma_star=0.05)
        loads = demand.as_array() + np.linspace(-40, 40, k).astype(np.int64)
        p = SigmoidFeedback(lam).lack_probabilities(demand.as_array() - loads)
        u = np.asarray(p * p, dtype=np.float64)

        engine = BatchedCountingSimulator(
            [
                CountingSimulator(
                    AntAlgorithm(gamma=0.025), demand, SigmoidFeedback(lam), seed=s
                )
                for s in range(3)
            ]
        )
        pi = engine._join_cache.distribution(u)
        np.testing.assert_allclose(pi, exact_join_probabilities(u), atol=1e-12)
        trials = 200_000
        mc = per_ant_action_distribution(u, trials, np.random.default_rng(64))
        bound = 2 * 0.4 * np.sqrt((k + 1) / trials)
        assert tv_distance(pi, mc) < bound


def _cold_run_misses(sim) -> int:
    """Run ``sim`` from an empty join store; its kernel calls."""
    clear_join_cache()
    sim.run(ROUNDS)
    return sim.pi_cache_misses


class TestBatchCache:
    def test_cross_lane_dedup_beats_per_lane_caches(self):
        factory = CONFIGS["ant_exact_binary"]  # integer signatures repeat
        serial_misses = sum(_cold_run_misses(factory(s)) for s in SEEDS)
        engine = BatchedCountingSimulator([factory(s) for s in SEEDS])
        assert _cold_run_misses(engine) > 0
        # The batch's lanes read one store: it can only miss on the
        # *distinct* signatures, so B cold single-lane runs miss at least
        # as often.
        assert engine.pi_cache_misses <= serial_misses
        assert engine.pi_cache_hits > 0

    def test_stats_reset_between_runs(self):
        factory = CONFIGS["ant_exact_binary"]
        engine = BatchedCountingSimulator([factory(s) for s in SEEDS[:3]])
        engine.run(100)
        first = engine.pi_cache_hits + engine.pi_cache_misses
        engine.run(100)
        second = engine.pi_cache_hits + engine.pi_cache_misses
        assert 0 < second <= first

    def test_cache_off_calls_the_kernel_for_every_join(self, monkeypatch):
        from tests.sim.test_pi_cache import KernelCallCounter

        counter = KernelCallCounter(monkeypatch)
        cached = BatchedCountingSimulator([CONFIGS["ant"](s) for s in SEEDS])
        cached_out = cached.run(60)
        calls = counter.calls
        engine = BatchedCountingSimulator([CONFIGS["ant_cache_off"](s) for s in SEEDS])
        out = engine.run(60)
        # The uncached reference: one kernel call per lane join, nothing
        # counted, and the very bits of the cached batch.
        assert counter.calls - calls == cached.pi_cache_hits + cached.pi_cache_misses
        assert engine.pi_cache_hits == 0 and engine.pi_cache_misses == 0
        for a, b in zip(cached_out, out):
            _assert_results_bit_identical(a, b)


class TestValidation:
    def test_rejects_empty_batch(self):
        with pytest.raises(ConfigurationError, match="at least one lane"):
            BatchedCountingSimulator([])

    def test_rejects_non_counting_lane(self):
        with pytest.raises(ConfigurationError, match="CountingSimulator"):
            BatchedCountingSimulator([object()])

    def test_rejects_mixed_configurations(self):
        demand, fb = _components()
        lanes = [
            CountingSimulator(AntAlgorithm(gamma=0.05), demand, fb, seed=0),
            CountingSimulator(AntAlgorithm(gamma=0.025), demand, fb, seed=1),
        ]
        with pytest.raises(ConfigurationError, match="share one configuration"):
            BatchedCountingSimulator(lanes)

    def test_rejects_unknown_backend(self):
        # numpy is the only array backend; the spec engine that still
        # carries the param (for digest compatibility) rejects the rest.
        from repro.scenario.engines import make_engine

        demand, fb = _components()
        components = dict(algorithm=AntAlgorithm(gamma=0.05), demand=demand, feedback=fb)
        with pytest.raises(ConfigurationError, match="unknown array backend"):
            make_engine("counting_batched", backend="jax", **components)
        lane = make_engine("counting_batched", backend="numpy", **components)
        assert isinstance(lane, CountingSimulator)

    def test_rejects_burn_in_swallowing_the_run(self):
        factory = CONFIGS["ant"]
        engine = BatchedCountingSimulator([factory(0)])
        with pytest.raises(ConfigurationError, match="burn_in"):
            engine.run(10, burn_in=10)

    def test_default_batch_constant(self):
        assert DEFAULT_BATCH == 16
