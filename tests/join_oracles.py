"""Test oracles for the exact join kernel.

:func:`repro.util.mathx.exact_join_probabilities` evaluates the idle
pool's join law ``pi_j = u_j * E[1/(1 + B_j)]`` by Gauss-Legendre
quadrature.  The constructions here compute the same law the classical
way — build the Poisson-binomial PMF of the full marked count, then
deconvolve one Bernoulli factor per task — with two independent PMF
builders (an O(k^2) dynamic programme and a divide-and-conquer FFT).
They are slow, loop-heavy and kept out of ``src/``; tests compare the
kernel against them, and against each other, next to the brute-force
subset enumerator.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.exceptions import ConfigurationError
from repro.util.mathx import _check_probability_vector, _normalize_join_distribution


def poisson_binomial_pmf(u: npt.ArrayLike) -> np.ndarray:
    """PMF of ``B = sum_j Bernoulli(u[j])`` by the O(k^2) DP.

    Convolves the running PMF with one Bernoulli factor at a time;
    ``pmf[m] = P[B = m]``, shape ``(k + 1,)``.
    """
    u = _check_probability_vector(u)
    k = u.shape[0]
    pmf = np.zeros(k + 1, dtype=np.float64)
    pmf[0] = 1.0
    for j in range(k):
        p = u[j]
        if p == 0.0:
            continue
        pmf[1 : j + 2] = pmf[1 : j + 2] * (1.0 - p) + pmf[0 : j + 1] * p
        pmf[0] *= 1.0 - p
    return pmf


def fft_poisson_binomial_pmf(u: npt.ArrayLike) -> np.ndarray:
    """The same PMF by divide-and-conquer FFT.

    The PMF is the coefficient vector of ``P(t) = prod_j (q_j + u_j t)``;
    the factors are merged pairwise bottom-up, one batched real FFT per
    level, over a leaf list padded with identity polynomials to a power
    of two.  Round-off dust is clipped and the result renormalized.
    """
    u = _check_probability_vector(u)
    k = u.shape[0]
    if k == 0:
        return np.ones(1, dtype=np.float64)
    n_leaves = 1 << (k - 1).bit_length()
    polys = np.zeros((n_leaves, 2), dtype=np.float64)
    polys[:k, 0] = 1.0 - u
    polys[:k, 1] = u
    polys[k:, 0] = 1.0
    while polys.shape[0] > 1:
        m = polys.shape[1]
        out_len = 2 * m - 1
        n_fft = 1 << (out_len - 1).bit_length()
        fa = np.fft.rfft(polys[0::2], n_fft, axis=1)
        fb = np.fft.rfft(polys[1::2], n_fft, axis=1)
        polys = np.fft.irfft(fa * fb, n_fft, axis=1)[:, :out_len]
    pmf = polys[0][: k + 1]
    np.clip(pmf, 0.0, 1.0, out=pmf)
    total = pmf.sum()
    if not np.isclose(total, 1.0, rtol=0.0, atol=1e-9 * max(k, 1)):
        raise ConfigurationError(f"FFT Poisson-binomial PMF does not sum to 1 (got {total})")
    return pmf / total


def leave_one_out_join(u: np.ndarray, pmf: np.ndarray) -> np.ndarray:
    """Join distribution from a full-count PMF by leave-one-out deconvolution.

    Each leave-one-out PMF is recovered by deconvolving one Bernoulli
    factor — a two-term recurrence run forward where ``u[j] <= 1/2`` and
    backward where ``u[j] > 1/2``, so the error amplification factor never
    exceeds 1 — vectorized across tasks.
    """
    k = u.shape[0]
    pi = np.zeros(k + 1, dtype=np.float64)
    pi[k] = pmf[0]
    active = np.nonzero(u > 0.0)[0]
    if active.size:
        ua = u[active]
        qa = 1.0 - ua
        # g[i, m] = P[B_j = m] for j = active[i]; support 0..k-1.
        g = np.empty((active.size, k), dtype=np.float64)
        fwd = ua <= 0.5
        if np.any(fwd):
            uf, qf = ua[fwd], qa[fwd]
            gf = np.empty((uf.size, k), dtype=np.float64)
            gf[:, 0] = pmf[0] / qf
            for m in range(1, k):
                gf[:, m] = (pmf[m] - uf * gf[:, m - 1]) / qf
            g[fwd] = gf
        bwd = ~fwd
        if np.any(bwd):
            ub, qb = ua[bwd], qa[bwd]
            gb = np.empty((ub.size, k), dtype=np.float64)
            gb[:, k - 1] = pmf[k] / ub
            for m in range(k - 1, 0, -1):
                gb[:, m - 1] = (pmf[m] - qb * gb[:, m]) / ub
            g[bwd] = gb
        np.clip(g, 0.0, 1.0, out=g)
        g /= g.sum(axis=1, keepdims=True)
        pi[active] = ua * (g @ (1.0 / np.arange(1.0, k + 1.0)))
    return pi


def _join_law(u: npt.ArrayLike, pmf) -> np.ndarray:
    u = _check_probability_vector(u)
    k = u.shape[0]
    if k == 0:
        return np.ones(1, dtype=np.float64)
    return _normalize_join_distribution(leave_one_out_join(u, pmf(u)), k)


def dp_join_probabilities(u: npt.ArrayLike) -> np.ndarray:
    """The join law from the DP PMF plus deconvolution."""
    return _join_law(u, poisson_binomial_pmf)


def fft_join_probabilities(u: npt.ArrayLike) -> np.ndarray:
    """The join law from the FFT PMF plus deconvolution."""
    return _join_law(u, fft_poisson_binomial_pmf)
