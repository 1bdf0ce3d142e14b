"""Tests for the O(k)-per-round counting engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ant import AntAlgorithm, OneSampleAntAlgorithm
from repro.core.precise_sigmoid import PreciseSigmoidAlgorithm
from repro.core.trivial import TrivialAlgorithm
from repro.env.critical import lambda_for_critical_value
from repro.env.demands import uniform_demands
from repro.env.feedback import AdversarialFeedback, SigmoidFeedback
from repro.env.population import StepPopulation
from repro.exceptions import ConfigurationError
from repro.sim.counting import CountingSimulator


class TestConstruction:
    def test_rejects_unsupported_algorithm(self, small_demand):
        with pytest.raises(ConfigurationError, match="CountingSimulator supports"):
            CountingSimulator(
                OneSampleAntAlgorithm(gamma=0.01), small_demand, SigmoidFeedback(1.0)
            )

    def test_rejects_non_iid_feedback(self, small_demand):
        with pytest.raises(ConfigurationError, match="i.i.d"):
            CountingSimulator(
                AntAlgorithm(gamma=0.01), small_demand, AdversarialFeedback(0.1)
            )

    def test_rejects_unknown_join_strategy(self, small_demand):
        # Joins are one multinomial over the kernel: nothing to choose.
        with pytest.raises(TypeError, match="join_strategy"):
            CountingSimulator(
                AntAlgorithm(gamma=0.01),
                small_demand,
                SigmoidFeedback(1.0),
                join_strategy="exact",
            )

    def test_rejects_bad_initial_loads(self, small_demand):
        with pytest.raises(ConfigurationError):
            CountingSimulator(
                AntAlgorithm(gamma=0.01),
                small_demand,
                SigmoidFeedback(1.0),
                initial_loads=np.array([-1, 0, 0, 0]),
            )
        with pytest.raises(ConfigurationError):
            CountingSimulator(
                AntAlgorithm(gamma=0.01),
                small_demand,
                SigmoidFeedback(1.0),
                initial_loads=np.full(4, small_demand.n),
            )


class TestAntCounting:
    def test_runs_and_conserves(self, stable_demand, sigmoid):
        sim = CountingSimulator(AntAlgorithm(gamma=0.025), stable_demand, sigmoid, seed=0)
        out = sim.run(2000, trace_stride=1)
        loads = out.trace.loads
        assert np.all(loads >= 0)
        assert np.all(loads.sum(axis=1) <= stable_demand.n)

    def test_reproducible(self, stable_demand, sigmoid):
        runs = [
            CountingSimulator(AntAlgorithm(gamma=0.025), stable_demand, sigmoid, seed=5)
            .run(500)
            .final_loads
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_converges(self, stable_demand, sigmoid, gamma_star):
        sim = CountingSimulator(AntAlgorithm(gamma=0.025), stable_demand, sigmoid, seed=0)
        out = sim.run(8000, burn_in=4000)
        assert out.metrics.closeness(gamma_star, stable_demand.total) <= 12.5

    def test_final_assignment_consistent(self, stable_demand, sigmoid):
        sim = CountingSimulator(AntAlgorithm(gamma=0.025), stable_demand, sigmoid, seed=0)
        out = sim.run(100)
        from repro.types import loads_from_assignment

        np.testing.assert_array_equal(
            loads_from_assignment(out.final_assignment, stable_demand.k),
            out.final_loads.astype(np.int64),
        )


class TestManyTasks:
    """Exact counting runs at task counts the subset enumerator could
    never reach (the O(k^2) kernel's raison d'etre)."""

    def test_k64_exact_run_completes(self):
        demand = uniform_demands(n=64000, k=64)
        lam = lambda_for_critical_value(demand, gamma_star=0.01)
        sim = CountingSimulator(
            AntAlgorithm(gamma=0.025), demand, SigmoidFeedback(lam), seed=0
        )
        out = sim.run(1000, burn_in=500)
        assert out.k == 64
        assert np.all(out.final_loads >= 0)
        assert int(out.final_loads.sum()) <= demand.n
        # After burn-in the colony is near demand, not stuck at zero.
        assert out.metrics.average_regret < 0.5 * demand.total

    def test_k256_run_completes(self):
        demand = uniform_demands(n=256000, k=256)
        lam = lambda_for_critical_value(demand, gamma_star=0.01)
        sim = CountingSimulator(
            AntAlgorithm(gamma=0.025), demand, SigmoidFeedback(lam), seed=1
        )
        out = sim.run(200)
        assert out.k == 256
        assert int(out.final_loads.sum()) <= demand.n

    def test_k1024_heterogeneous_run_completes(self):
        """k past the FFT dispatch threshold, power-law demands, per-task
        lambda — the PR 3 scenario surface end to end."""
        from repro.env.demands import powerlaw_demands

        demand = powerlaw_demands(n=102400, k=1024, alpha=1.0)
        # Equal relative grey zone: steeper lambda for lighter tasks.
        lam = 10.0 / demand.as_array().astype(float)
        sim = CountingSimulator(
            AntAlgorithm(gamma=0.025), demand, SigmoidFeedback(lam), seed=2
        )
        out = sim.run(30)
        assert out.k == 1024
        assert np.all(out.final_loads >= 0)
        assert int(out.final_loads.sum()) <= demand.n

    def test_kernel_methods_agree_on_engine_signatures(self, monkeypatch):
        """The quadrature kernel agrees (<=1e-12) with the DP and FFT
        deconvolution oracles on every mark-probability vector an actual
        run encounters — not just synthetic inputs."""
        import repro.sim.counting as counting_mod
        from repro.util.mathx import exact_join_probabilities as kernel
        from tests.join_oracles import dp_join_probabilities, fft_join_probabilities

        seen: list[np.ndarray] = []

        def capturing(u, **kwargs):
            seen.append(np.array(u))
            return kernel(u, **kwargs)

        monkeypatch.setattr(counting_mod, "exact_join_probabilities", capturing)
        demand = uniform_demands(n=2000, k=4)
        lam = lambda_for_critical_value(demand, gamma_star=0.02)
        CountingSimulator(
            AntAlgorithm(gamma=0.05), demand, SigmoidFeedback(lam), seed=9
        ).run(60)
        assert seen, "run produced no join rounds"
        for u in seen:
            pi = kernel(u)
            np.testing.assert_allclose(pi, dp_join_probabilities(u), atol=1e-12)
            np.testing.assert_allclose(pi, fft_join_probabilities(u), atol=1e-12)


class TestBurnInValidation:
    def test_burn_in_equal_to_rounds_rejected(self, stable_demand, sigmoid):
        sim = CountingSimulator(AntAlgorithm(gamma=0.025), stable_demand, sigmoid, seed=0)
        with pytest.raises(ConfigurationError, match="burn_in"):
            sim.run(100, burn_in=100)

    def test_burn_in_exceeding_rounds_rejected(self, stable_demand, sigmoid):
        sim = CountingSimulator(AntAlgorithm(gamma=0.025), stable_demand, sigmoid, seed=0)
        with pytest.raises(ConfigurationError, match="burn_in"):
            sim.run(100, burn_in=150)

    def test_negative_burn_in_rejected(self, stable_demand, sigmoid):
        sim = CountingSimulator(AntAlgorithm(gamma=0.025), stable_demand, sigmoid, seed=0)
        with pytest.raises(ConfigurationError, match="burn_in"):
            sim.run(100, burn_in=-1)


class TestPopulationReporting:
    """After a shrink the result must describe the living colony, not
    pad dead ants as IDLE up to capacity."""

    def _shrunk_run(self):
        demand = uniform_demands(n=8000, k=4)
        lam = lambda_for_critical_value(demand, gamma_star=0.01)
        pop = StepPopulation(steps=((0, 8000), (100, 5600)))
        sim = CountingSimulator(
            AntAlgorithm(gamma=0.025),
            demand,
            SigmoidFeedback(lam),
            seed=0,
            population=pop,
        )
        return sim, sim.run(400)

    def test_n_current_reports_living_count(self):
        _, out = self._shrunk_run()
        assert out.n == 8000  # capacity is still reported as n
        assert out.n_current == 5600

    def test_final_assignment_sized_by_living_colony(self):
        _, out = self._shrunk_run()
        assert out.final_assignment.shape == (5600,)
        working = int((out.final_assignment >= 0).sum())
        idle = int((out.final_assignment == -1).sum())
        assert working == int(out.final_loads.sum())
        assert working + idle == out.n_current

    def test_static_population_n_current_equals_n(self, stable_demand, sigmoid):
        out = CountingSimulator(
            AntAlgorithm(gamma=0.025), stable_demand, sigmoid, seed=0
        ).run(50)
        assert out.n_current == out.n == stable_demand.n
        assert out.final_assignment.shape == (stable_demand.n,)

    def test_rerun_starts_from_initial_population(self):
        sim, first = self._shrunk_run()
        again = sim.run(50)  # shorter than the shrink round
        assert again.n_current == 8000
        assert again.final_assignment.shape == (8000,)

    def test_rerun_never_resizes_before_the_step(self, monkeypatch):
        # Sharper pin on the _n_current rewind: a second run shorter than
        # the shrink round must never call apply_population_change at all.
        # Stale _n_current from the first run (stuck at the shrunk size)
        # would force a spurious "resize" back to 8000 at round 1.
        sim, _ = self._shrunk_run()
        import repro.sim.batched as batched_mod  # home of the round programs

        calls: list[int] = []
        real = batched_mod.apply_population_change

        def spy(W, idle, n_new, rng):
            calls.append(n_new)
            return real(W, idle, n_new, rng)

        monkeypatch.setattr(batched_mod, "apply_population_change", spy)
        sim.run(50)
        assert calls == []


class TestTrivialCounting:
    def test_oscillates_like_agent_engine(self):
        from repro.env.demands import DemandVector

        demand = DemandVector(np.array([500]), n=2000, strict=False)
        lam = lambda_for_critical_value(demand, gamma_star=0.1)
        sim = CountingSimulator(TrivialAlgorithm(), demand, SigmoidFeedback(lam), seed=0)
        out = sim.run(200, trace_stride=1)
        loads = out.trace.loads[:, 0]
        assert loads.max() - loads.min() >= 1000

    def test_rate_limited_variant(self, stable_demand, sigmoid):
        alg = TrivialAlgorithm(leave_probability=0.002, join_probability=0.002)
        sim = CountingSimulator(alg, stable_demand, sigmoid, seed=0)
        out = sim.run(8000, burn_in=6000)
        # The damped variant holds a tight allocation.
        assert out.metrics.max_abs_deficit <= 0.1 * stable_demand.min_demand


class TestPreciseSigmoidCounting:
    def test_phase_structure_loads_piecewise_constant(self, stable_demand, sigmoid):
        alg = PreciseSigmoidAlgorithm(gamma=0.04, eps=0.5)
        start = stable_demand.as_array() + 50
        sim = CountingSimulator(alg, stable_demand, sigmoid, seed=0, initial_loads=start)
        out = sim.run(alg.phase_length, trace_stride=1)
        loads = out.trace.loads
        # Window 1 (rounds 1..m-1): loads frozen at the start value.
        assert np.all(loads[: alg.m - 1] == start)
        # Window 2 (rounds m..2m-1): frozen at the paused value.
        assert np.all(loads[alg.m : 2 * alg.m - 1] == loads[alg.m - 1])

    def test_converges_at_scale(self):
        n = 80000
        demand = uniform_demands(n=n, k=4)
        gs = 0.01
        lam = lambda_for_critical_value(demand, gamma_star=gs)
        alg = PreciseSigmoidAlgorithm(gamma=0.04, eps=0.5)
        start = np.round(demand.as_array() * (1 + 2 * alg.step_size)).astype(np.int64)
        sim = CountingSimulator(alg, demand, SigmoidFeedback(lam), seed=0, initial_loads=start)
        out = sim.run(40000, burn_in=8000)
        # Theorem 3.2 rate: eps * gamma * sum_d.
        assert out.metrics.average_regret <= 0.5 * 0.04 * demand.total
