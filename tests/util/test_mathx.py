"""Unit + property tests for the math helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.util.mathx as mathx
from repro.exceptions import ConfigurationError
from repro.util.mathx import (
    ENUMERATION_K_LIMIT,
    enumerate_subset_join_probabilities,
    exact_join_probabilities,
    inverse_logistic,
    log1pexp,
    logistic,
    sigmoid_lack_probability,
)
from tests.join_oracles import (
    dp_join_probabilities,
    fft_join_probabilities,
    fft_poisson_binomial_pmf,
    poisson_binomial_pmf,
)


class TestLogistic:
    def test_at_zero(self):
        assert logistic(0.0) == pytest.approx(0.5)

    def test_saturates_high(self):
        assert logistic(1000.0) == pytest.approx(1.0)

    def test_saturates_low(self):
        assert logistic(-1000.0) == pytest.approx(0.0)

    def test_no_overflow_extreme(self):
        # Must not warn or produce NaN at extreme arguments.
        vals = logistic(np.array([-1e8, -750.0, 750.0, 1e8]))
        assert np.all(np.isfinite(vals))
        assert vals[0] == 0.0 and vals[-1] == 1.0

    def test_vector_shape_preserved(self):
        x = np.linspace(-5, 5, 17).reshape(17, 1)
        assert logistic(x).shape == (17, 1)

    @given(st.floats(min_value=-500, max_value=500))
    def test_antisymmetry(self, x):
        # s(-x) == 1 - s(x), the property Definition 2.3 relies on.
        assert logistic(-x) == pytest.approx(1.0 - logistic(x), abs=1e-12)

    @given(st.floats(min_value=-100, max_value=100), st.floats(min_value=-100, max_value=100))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert logistic(lo) <= logistic(hi) + 1e-15

    @given(st.floats(min_value=-20, max_value=20))
    def test_inverse_roundtrip(self, x):
        # Precision degrades as the sigmoid saturates (1-p loses bits),
        # so the property is asserted on the numerically meaningful range.
        assert inverse_logistic(logistic(x)) == pytest.approx(x, rel=1e-5, abs=1e-5)

    def test_inverse_rejects_boundary(self):
        with pytest.raises(ConfigurationError):
            inverse_logistic(0.0)
        with pytest.raises(ConfigurationError):
            inverse_logistic(1.0)


class TestLog1pExp:
    @given(st.floats(min_value=-700, max_value=700))
    def test_matches_naive_where_safe(self, x):
        if abs(x) < 30:
            assert log1pexp(x) == pytest.approx(np.log1p(np.exp(x)), rel=1e-12)

    def test_large_argument_linear(self):
        assert log1pexp(1000.0) == pytest.approx(1000.0)

    def test_very_negative_is_zero(self):
        assert log1pexp(-1000.0) == pytest.approx(0.0, abs=1e-300)


class TestSigmoidLackProbability:
    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ConfigurationError):
            sigmoid_lack_probability(np.zeros(3), 0.0)

    def test_per_task_lambda_vector(self):
        # Each task gets its own steepness; at deficit 0 all read 1/2.
        lam = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(
            sigmoid_lack_probability(np.zeros(3), lam), 0.5
        )
        p = sigmoid_lack_probability(np.array([1.0, 1.0, 1.0]), lam)
        assert p[0] < p[1] < p[2]  # steeper lambda, sharper response

    def test_per_task_lambda_rejects_nonpositive_entry(self):
        with pytest.raises(ConfigurationError):
            sigmoid_lack_probability(np.zeros(3), np.array([1.0, 0.0, 2.0]))

    def test_per_task_lambda_rejects_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            sigmoid_lack_probability(np.zeros(3), np.array([1.0, 2.0]))

    def test_per_task_lambda_matches_scalar_per_entry(self):
        deficits = np.array([-3.0, 0.5, 7.0])
        lam = np.array([0.3, 1.7, 0.9])
        expected = [
            sigmoid_lack_probability(np.array([d]), float(la))[0]
            for d, la in zip(deficits, lam)
        ]
        np.testing.assert_allclose(
            sigmoid_lack_probability(deficits, lam), expected
        )

    def test_half_at_zero_deficit(self):
        assert sigmoid_lack_probability(np.array([0.0]), 2.0)[0] == pytest.approx(0.5)

    def test_lack_likely_when_underloaded(self):
        p = sigmoid_lack_probability(np.array([50.0]), 1.0)[0]
        assert p > 0.999

    def test_overload_likely_when_overloaded(self):
        p = sigmoid_lack_probability(np.array([-50.0]), 1.0)[0]
        assert p < 0.001


class TestSubsetJoinProbabilities:
    def test_sums_to_one(self):
        pi = enumerate_subset_join_probabilities(np.array([0.3, 0.7, 0.1]))
        assert pi.sum() == pytest.approx(1.0)

    def test_all_zero_probs_stay_idle(self):
        pi = enumerate_subset_join_probabilities(np.zeros(4))
        assert pi[-1] == pytest.approx(1.0)
        assert np.all(pi[:-1] == 0.0)

    def test_all_one_probs_uniform_split(self):
        pi = enumerate_subset_join_probabilities(np.ones(4))
        assert pi[-1] == pytest.approx(0.0)
        np.testing.assert_allclose(pi[:-1], 0.25)

    def test_single_task(self):
        pi = enumerate_subset_join_probabilities(np.array([0.4]))
        np.testing.assert_allclose(pi, [0.4, 0.6])

    def test_symmetric_inputs_give_symmetric_outputs(self):
        pi = enumerate_subset_join_probabilities(np.array([0.5, 0.5]))
        assert pi[0] == pytest.approx(pi[1])

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ConfigurationError):
            enumerate_subset_join_probabilities(np.array([1.5]))
        with pytest.raises(ConfigurationError):
            enumerate_subset_join_probabilities(np.array([-0.1]))

    def test_rejects_large_k(self):
        with pytest.raises(ConfigurationError):
            enumerate_subset_join_probabilities(np.full(25, 0.5))

    def test_limit_is_the_shared_constant(self):
        # k == limit enumerates; k == limit + 1 refuses, naming the kernel.
        pi = enumerate_subset_join_probabilities(np.full(ENUMERATION_K_LIMIT, 0.01))
        assert pi.shape == (ENUMERATION_K_LIMIT + 1,)
        with pytest.raises(ConfigurationError, match="exact_join_probabilities"):
            enumerate_subset_join_probabilities(np.full(ENUMERATION_K_LIMIT + 1, 0.01))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6)
    )
    def test_distribution_property(self, u):
        pi = enumerate_subset_join_probabilities(np.array(u))
        assert pi.shape == (len(u) + 1,)
        assert np.all(pi >= -1e-12)
        assert pi.sum() == pytest.approx(1.0)
        # Stay-idle probability equals prod(1 - u_j).
        assert pi[-1] == pytest.approx(float(np.prod(1.0 - np.array(u))), abs=1e-9)


class TestPoissonBinomialPmf:
    """The DP Poisson-binomial PMF oracle (tests/join_oracles.py)."""

    def test_bernoulli(self):
        np.testing.assert_allclose(poisson_binomial_pmf(np.array([0.3])), [0.7, 0.3])

    def test_matches_binomial_for_equal_probs(self):
        from scipy import stats

        k, p = 12, 0.37
        pmf = poisson_binomial_pmf(np.full(k, p))
        np.testing.assert_allclose(pmf, stats.binom.pmf(np.arange(k + 1), k, p), atol=1e-12)

    def test_degenerate_endpoints(self):
        pmf = poisson_binomial_pmf(np.array([0.0, 1.0, 1.0]))
        np.testing.assert_allclose(pmf, [0.0, 0.0, 1.0, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20))
    def test_valid_pmf_with_right_mean(self, u):
        u = np.array(u)
        pmf = poisson_binomial_pmf(u)
        assert pmf.shape == (u.size + 1,)
        assert np.all(pmf >= 0.0)
        assert pmf.sum() == pytest.approx(1.0)
        assert pmf @ np.arange(u.size + 1) == pytest.approx(u.sum(), abs=1e-9)


class TestFftPoissonBinomialPmf:
    """The two PMF oracles are independent constructions: the FFT
    divide-and-conquer PMF must agree with the O(k^2) DP to well under the
    1e-10 bar, including at the numerically nasty points (u near 0/1 and
    exactly 1/2) and at k past 10^3."""

    PROPERTY_KS = (16, 128, 512, 1024)

    @pytest.mark.parametrize("k", PROPERTY_KS)
    def test_matches_dp_random_u(self, k):
        u = np.random.default_rng(k).random(k)
        np.testing.assert_allclose(
            fft_poisson_binomial_pmf(u), poisson_binomial_pmf(u), atol=1e-10
        )

    @pytest.mark.parametrize("k", PROPERTY_KS)
    def test_matches_dp_extreme_u(self, k):
        # Entries near 0, near 1, exactly 0/1, and exactly 1/2 — the
        # regimes where the deconvolution downstream is most sensitive.
        rng = np.random.default_rng(1000 + k)
        pool = np.array([0.0, 1.0, 0.5, 1e-14, 1.0 - 1e-14, 1e-3, 1.0 - 1e-3])
        u = rng.choice(pool, size=k)
        np.testing.assert_allclose(
            fft_poisson_binomial_pmf(u), poisson_binomial_pmf(u), atol=1e-10
        )

    @pytest.mark.parametrize("k", PROPERTY_KS)
    def test_matches_dp_all_half(self, k):
        u = np.full(k, 0.5)
        np.testing.assert_allclose(
            fft_poisson_binomial_pmf(u), poisson_binomial_pmf(u), atol=1e-10
        )

    def test_matches_binomial_for_equal_probs(self):
        from scipy import stats

        k, p = 1024, 0.37
        pmf = fft_poisson_binomial_pmf(np.full(k, p))
        np.testing.assert_allclose(
            pmf, stats.binom.pmf(np.arange(k + 1), k, p), atol=1e-12
        )

    def test_non_power_of_two_k(self):
        # Leaf padding must be invisible: odd and just-past-a-power sizes.
        for k in (1, 3, 5, 17, 100, 129, 1000):
            u = np.random.default_rng(k).random(k)
            pmf = fft_poisson_binomial_pmf(u)
            assert pmf.shape == (k + 1,)
            np.testing.assert_allclose(pmf, poisson_binomial_pmf(u), atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=24))
    def test_valid_pmf_with_right_mean(self, u):
        u = np.array(u)
        pmf = fft_poisson_binomial_pmf(u)
        assert pmf.shape == (u.size + 1,)
        assert np.all(pmf >= 0.0)
        assert pmf.sum() == pytest.approx(1.0)
        assert pmf @ np.arange(u.size + 1) == pytest.approx(u.sum(), abs=1e-9)

    def test_empty_input(self):
        np.testing.assert_allclose(fft_poisson_binomial_pmf(np.zeros(0)), [1.0])

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ConfigurationError):
            fft_poisson_binomial_pmf(np.array([1.5]))


class TestFftJoinProbabilities:
    """The FFT-PMF deconvolution oracle, the DP-PMF deconvolution oracle,
    the subset enumerator and the quadrature kernel must all produce the
    same distribution."""

    @pytest.mark.parametrize("k", (16, 128, 512, 1024))
    def test_matches_dp_kernel(self, k):
        u = np.random.default_rng(k).random(k)
        np.testing.assert_allclose(
            fft_join_probabilities(u), dp_join_probabilities(u), atol=1e-10
        )

    @pytest.mark.parametrize("k", (16, 512))
    def test_matches_dp_kernel_extreme_u(self, k):
        pool = np.array([0.0, 1.0, 0.5, 1e-14, 1.0 - 1e-14, 0.25, 0.75])
        u = np.random.default_rng(k).choice(pool, size=k)
        np.testing.assert_allclose(
            fft_join_probabilities(u), dp_join_probabilities(u), atol=1e-10
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                 max_size=ENUMERATION_K_LIMIT)
    )
    def test_fft_path_matches_enumerator(self, u):
        # The subset enumerator covers the FFT oracle too, not just the DP.
        u = np.array(u)
        np.testing.assert_allclose(
            fft_join_probabilities(u),
            enumerate_subset_join_probabilities(u),
            atol=1e-10,
        )

    def test_fft_path_matches_enumerator_at_the_limit(self, rng):
        u = rng.random(ENUMERATION_K_LIMIT)
        np.testing.assert_allclose(
            fft_join_probabilities(u),
            enumerate_subset_join_probabilities(u),
            atol=1e-10,
        )

    def test_auto_dispatch_agrees_with_both_methods(self):
        # Around k = 512, where the kernel once switched from the DP to
        # the FFT PMF, the one quadrature kernel agrees with both oracles.
        for k in (256, 512, 513):
            u = np.random.default_rng(k).random(k)
            kernel = exact_join_probabilities(u)
            np.testing.assert_allclose(kernel, dp_join_probabilities(u), atol=1e-10)
            np.testing.assert_allclose(kernel, fft_join_probabilities(u), atol=1e-10)

    def test_rejects_unknown_method(self):
        # There is one kernel: no back end can be selected.
        with pytest.raises(TypeError, match="method"):
            exact_join_probabilities(np.array([0.5]), method="fft")

    def test_valid_distribution_large_k(self):
        u = np.random.default_rng(2048).random(2048)
        pi = fft_join_probabilities(u)
        assert pi.shape == (2049,)
        assert np.all(pi >= 0.0)
        assert pi.sum() == pytest.approx(1.0)
        assert pi[-1] == pytest.approx(float(np.prod(1.0 - u)))


class TestExactJoinProbabilities:
    """The kernel must be exact in law: identical to the subset enumerator
    wherever the enumerator is feasible (beyond it, to the DP and FFT
    oracles; one idle ant's join law is checked exactly against the
    agent algorithm in ``tests/sim/test_lumpability.py``)."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                 max_size=ENUMERATION_K_LIMIT)
    )
    def test_matches_enumerator_distribution(self, u):
        u = np.array(u)
        np.testing.assert_allclose(
            exact_join_probabilities(u),
            enumerate_subset_join_probabilities(u),
            atol=1e-12,
        )

    def test_matches_enumerator_at_the_limit(self, rng):
        u = rng.random(ENUMERATION_K_LIMIT)
        np.testing.assert_allclose(
            exact_join_probabilities(u),
            enumerate_subset_join_probabilities(u),
            atol=1e-12,
        )

    def test_hard_mixture_of_extremes(self):
        # Exact zeros, exact ones, and values on both sides of the
        # forward/backward deconvolution switch at 1/2.
        u = np.array([0.0, 1.0, 0.5, 0.499, 0.501, 1e-12, 1.0 - 1e-12, 0.25])
        np.testing.assert_allclose(
            exact_join_probabilities(u),
            enumerate_subset_join_probabilities(u),
            atol=1e-12,
        )

    def test_large_k_valid_distribution(self):
        for k in (64, 128, 256):
            u = np.random.default_rng(k).random(k)
            pi = exact_join_probabilities(u)
            assert pi.shape == (k + 1,)
            assert np.all(pi >= 0.0)
            assert pi.sum() == pytest.approx(1.0)
            assert pi[k] == pytest.approx(float(np.prod(1.0 - u)))

    def test_uniform_split_when_all_marked(self):
        pi = exact_join_probabilities(np.ones(100))
        np.testing.assert_allclose(pi[:-1], 0.01)
        assert pi[-1] == 0.0

    def test_all_zero_stays_idle(self):
        pi = exact_join_probabilities(np.zeros(50))
        assert pi[-1] == pytest.approx(1.0)
        assert np.all(pi[:-1] == 0.0)

    def test_symmetry(self):
        pi = exact_join_probabilities(np.full(30, 0.3))
        np.testing.assert_allclose(pi[:-1], pi[0])

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ConfigurationError):
            exact_join_probabilities(np.array([1.5]))
        with pytest.raises(ConfigurationError):
            exact_join_probabilities(np.array([[0.5, 0.5]]))


class TestQuadratureJoinProbabilities:
    """The loop-free Gauss-Legendre kernel computes the *same* law as the
    DP/FFT deconvolution oracles (it integrates the exact degree-(k-1)
    leave-one-out polynomial), so all three must agree to well under the
    1e-10 acceptance bar up to k = 4096."""

    PROPERTY_KS = (16, 128, 512, 1024, 4096)

    @pytest.mark.parametrize("k", PROPERTY_KS)
    def test_matches_dp_and_fft_random_u(self, k):
        u = np.random.default_rng(k).random(k)
        quad = exact_join_probabilities(u)
        np.testing.assert_allclose(quad, dp_join_probabilities(u), atol=1e-10)
        np.testing.assert_allclose(quad, fft_join_probabilities(u), atol=1e-10)

    @pytest.mark.parametrize("k", (16, 512, 2048))
    def test_matches_dp_extreme_u(self, k):
        # Exact 0/1 entries, saturated sigmoids, and the 1/2 switch point
        # of the deconvolution — the regimes that stress log1p/exp.
        pool = np.array([0.0, 1.0, 0.5, 1e-14, 1.0 - 1e-14, 1e-3, 1.0 - 1e-3, 0.25])
        u = np.random.default_rng(1000 + k).choice(pool, size=k)
        np.testing.assert_allclose(
            exact_join_probabilities(u), dp_join_probabilities(u), atol=1e-10
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                 max_size=ENUMERATION_K_LIMIT)
    )
    def test_matches_enumerator(self, u):
        # The brute-force subset oracle covers the quadrature path too.
        u = np.array(u)
        np.testing.assert_allclose(
            exact_join_probabilities(u),
            enumerate_subset_join_probabilities(u),
            atol=1e-10,
        )

    def test_uniform_split_when_all_marked(self):
        # All u_j = 1: B_j = k - 1 deterministically, pi_j = 1/k; the
        # integrand degenerates to t^{k-1}, which Gauss-Legendre must
        # integrate exactly to 1/k.
        pi = exact_join_probabilities(np.ones(101))
        np.testing.assert_allclose(pi[:-1], 1.0 / 101, atol=1e-14)
        assert pi[-1] == 0.0

    def test_all_zero_stays_idle(self):
        pi = exact_join_probabilities(np.zeros(50))
        assert pi[-1] == pytest.approx(1.0)
        assert np.all(pi[:-1] == 0.0)

    def test_idle_probability_is_product(self):
        u = np.random.default_rng(3).random(64) * 0.1
        pi = exact_join_probabilities(u)
        assert pi[-1] == pytest.approx(float(np.prod(1.0 - u)), rel=1e-12)

    def test_valid_distribution_at_k8192(self):
        u = np.random.default_rng(8192).random(8192)
        pi = exact_join_probabilities(u)
        assert pi.shape == (8193,)
        assert np.all(pi >= 0.0)
        assert pi.sum() == pytest.approx(1.0)

    def test_wrapper_equals_explicit_method(self):
        # The public kernel is the quadrature core plus validation and
        # renormalization — nothing else touches the bits.
        u = np.random.default_rng(9).random(37)
        core = mathx._quadrature_join(u)
        np.testing.assert_array_equal(exact_join_probabilities(u), core / core.sum())

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ConfigurationError):
            exact_join_probabilities(np.array([1.5]))


class TestJoinKernelMethodDispatch:
    """There is no dispatch left: every k — including k = 511..513 and
    2047..2049, the seams where the kernel used to switch between the DP
    PMF, the FFT PMF and quadrature — runs the quadrature core once and
    agrees with both deconvolution oracles."""

    SEAMS = (511, 512, 513, 2047, 2048, 2049)

    def test_auto_agrees_with_every_back_end_at_the_crossovers(self):
        for k in (511, 512, 2048):
            u = np.random.default_rng(k).random(k)
            kernel = exact_join_probabilities(u)
            for oracle in (dp_join_probabilities, fft_join_probabilities):
                np.testing.assert_allclose(kernel, oracle(u), atol=1e-10)

    def test_auto_runs_the_resolved_kernel_at_each_boundary(self, monkeypatch):
        ran: list[int] = []
        real = mathx._quadrature_join

        def spy(u):
            ran.append(u.shape[0])
            return real(u)

        monkeypatch.setattr(mathx, "_quadrature_join", spy)
        for k in self.SEAMS:
            ran.clear()
            exact_join_probabilities(np.random.default_rng(k).random(k))
            assert ran == [k], k

    def test_back_ends_agree_one_past_each_seam(self):
        # The oracles agree with each other and with the kernel within
        # 1e-10 on the +/-1 neighbours of both former seams.
        for k in (513, 2047, 2049):
            u = np.random.default_rng(k).random(k)
            dp = dp_join_probabilities(u)
            np.testing.assert_allclose(dp, fft_join_probabilities(u), atol=1e-10)
            np.testing.assert_allclose(dp, exact_join_probabilities(u), atol=1e-10)

    def test_explicit_quadrature_runs_the_quadrature_core(self, monkeypatch):
        calls = []
        real = mathx._quadrature_join

        def spy(u):
            calls.append(u.shape[0])
            return real(u)

        monkeypatch.setattr(mathx, "_quadrature_join", spy)
        for k in (1, 2, 8):
            exact_join_probabilities(np.full(k, 0.3))
        assert calls == [1, 2, 8]


class TestGaussLegendreNodes:
    """The quadrature nodes: exact, and computed without dense LAPACK."""

    @pytest.mark.parametrize("m", (1, 4, 33, 512))
    def test_nodes_never_touch_dense_eigvalsh(self, monkeypatch, m):
        # numpy's leggauss takes a dense eigvalsh of the m x m companion
        # matrix; in concurrently forked workers its threaded BLAS ran
        # many times slower than in one process.  The nodes must come
        # from the banded solver instead, and integrate degree 2m - 1
        # exactly.
        def dense(*args, **kwargs):
            raise AssertionError("quadrature nodes must not use numpy.linalg.eigvalsh")

        monkeypatch.setattr(np.linalg, "eigvalsh", dense)
        t, w = mathx._gauss_legendre_unit.__wrapped__(m)
        assert np.all(np.diff(t) > 0.0) and t[0] > 0.0 and t[-1] < 1.0
        for degree in (0, 1, m, 2 * m - 1):
            assert w @ t**degree == pytest.approx(1.0 / (degree + 1), rel=1e-12)
