"""Numerically careful math helpers used throughout the library.

The sigmoid noise model of the paper evaluates ``s(x) = 1/(1+exp(-lambda x))``
at arguments that can be as large as ``lambda * n`` in magnitude, so naive
``exp`` overflows.  Everything here is branch-free, vectorized, and stable
in both tails (HPC guide: vectorize and avoid per-element Python loops).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np
import numpy.typing as npt

from repro.exceptions import ConfigurationError

__all__ = [
    "ENUMERATION_K_LIMIT",
    "log1pexp",
    "logistic",
    "inverse_logistic",
    "sigmoid_lack_probability",
    "exact_join_probabilities",
    "enumerate_subset_join_probabilities",
]

#: Largest task count for which the O(2^k k) subset enumerator is allowed.
#: Above this the enumerator refuses, and callers must use
#: :func:`exact_join_probabilities` (identical distribution, loop-free in
#: k) instead.
ENUMERATION_K_LIMIT = 14

#: Nodes whose log-polynomial value falls below this contribute less than
#: ``exp(-200) * k^2 ~ 1e-78`` to any join probability (see
#: :func:`_quadrature_join`); they are skipped without touching the
#: 1e-10 agreement bar.
_QUADRATURE_LOG_PRUNE = -200.0

#: Quadrature nodes processed per batched block.  Caps peak memory at
#: ``block * k`` float64s (~128 MiB at k = 8192) independent of ``k``.
_QUADRATURE_NODE_BLOCK = 1024


def log1pexp(x: npt.ArrayLike) -> np.ndarray:
    """Stable ``log(1 + exp(x))`` for any real ``x`` (a.k.a. softplus).

    Uses the standard two-branch identity: for ``x <= 0`` compute
    ``log1p(exp(x))`` directly; for ``x > 0`` use ``x + log1p(exp(-x))``.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    neg = x <= 0.0
    out[neg] = np.log1p(np.exp(x[neg]))
    pos = ~neg
    out[pos] = x[pos] + np.log1p(np.exp(-x[pos]))
    return out


def logistic(x: npt.ArrayLike) -> np.ndarray:
    """Stable logistic sigmoid ``1 / (1 + exp(-x))``, elementwise.

    Never overflows: the positive branch computes ``1/(1+exp(-x))`` and the
    negative branch ``exp(x)/(1+exp(x))``, each evaluated only where its
    exponent is non-positive.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def inverse_logistic(p: npt.ArrayLike) -> np.ndarray:
    """Inverse of :func:`logistic` (the logit), elementwise.

    Raises
    ------
    ConfigurationError
        If any probability lies outside the open interval ``(0, 1)``.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ConfigurationError("inverse_logistic requires probabilities strictly in (0, 1)")
    return np.log(p) - np.log1p(-p)


def sigmoid_lack_probability(
    deficit: npt.ArrayLike, lam: float | npt.ArrayLike
) -> np.ndarray:
    """Per-task probability that an ant's feedback reads LACK.

    This is the paper's noise kernel ``s(Delta) = 1/(1+exp(-lambda*Delta))``
    (Section 2.2).  ``deficit`` may be any shape; the result matches it.

    Parameters
    ----------
    deficit:
        ``Delta(j) = d(j) - W(j)``; positive values mean too few workers.
    lam:
        Sigmoid steepness ``lambda > 0``: a scalar applied to every task,
        or a per-task vector broadcast against ``deficit``'s task axis
        (heterogeneous noise — some tasks read more reliably than others).
    """
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam <= 0.0) or np.any(np.isnan(lam)):
        raise ConfigurationError(
            f"sigmoid steepness lambda must be > 0 everywhere, got {lam}"
        )
    try:
        arg = lam * np.asarray(deficit, dtype=np.float64)
    except ValueError as exc:
        raise ConfigurationError(
            f"per-task lambda shape {lam.shape} does not broadcast against "
            f"deficit shape {np.asarray(deficit).shape}: {exc}"
        ) from exc
    return logistic(arg)


def _check_probability_vector(u: npt.ArrayLike) -> np.ndarray:
    """Validate a 1-d vector of probabilities and return it as float64."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise ConfigurationError("u must be a 1-d vector of per-task probabilities")
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ConfigurationError("per-task underload probabilities must lie in [0, 1]")
    return u


def _normalize_join_distribution(pi: np.ndarray, k: int) -> np.ndarray:
    """Clip fp dust and renormalize an action distribution to sum to 1.

    Accumulated rounding grows with the number of terms, so the sanity
    check scales with ``k`` instead of the fixed ``atol=1e-9`` the old
    enumerator used (which spuriously tripped near the old k cap).  A
    genuinely broken distribution — sum far from 1 — still raises.
    """
    pi = np.clip(pi, 0.0, None)
    total = float(pi.sum())
    if not np.isclose(total, 1.0, rtol=0.0, atol=1e-9 * max(k, 1)):
        raise ConfigurationError(f"join probabilities do not sum to 1 (got {total})")
    return pi / total


@lru_cache(maxsize=16)
def _gauss_legendre_unit(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, 1].

    The nodes come from :func:`scipy.special.roots_legendre`, which takes
    the eigenvalues of the banded (tridiagonal) Jacobi matrix and polishes
    them with one Newton step.  ``numpy.polynomial.legendre.leggauss``
    computes the same nodes with a dense ``eigvalsh`` instead: O(m^3)
    work through the threaded BLAS, which in concurrently forked worker
    processes runs many times slower than in a lone process.
    The import is local: ``scipy.special`` is already loaded by the
    counting engine's ``scipy.stats`` import.

    Nodes come back sorted ascending; both arrays are marked read-only so
    the cache can hand the same objects to every caller.
    """
    from scipy.special import roots_legendre

    x, w = roots_legendre(m)
    t = 0.5 * (x + 1.0)
    w = 0.5 * w
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _quadrature_join(u: np.ndarray) -> np.ndarray:
    """Join distribution by Gauss-Legendre quadrature, no k-step recurrence.

    Writing ``P(t) = prod_i (q_i + u_i t)`` for the Poisson-binomial
    probability generating function, ``E[1/(1+B_j)] = integral over [0,1]
    of E[t^{B_j}] dt`` gives

    ``pi_j = u_j * integral_0^1 P(t) / (q_j + u_j t) dt``.

    The integrand is the degree-(a-1) leave-one-out polynomial (``a`` the
    number of active tasks), and an ``m``-node Gauss-Legendre rule is
    exact for every polynomial of degree ``<= 2m - 1``, so ``ceil(a/2)``
    nodes integrate it *exactly* — this is the exact join law, not an
    approximation.  Per node ``t_s`` the integrand values for all ``j``
    are recovered from one shared product:
    ``log P(t_s) - log(q_j + u_j t_s)``, evaluated as a batched
    ``(nodes x tasks)`` ``log1p``/``exp``/matvec — loop-free in ``k``
    (the only Python loop is over constant-size node blocks).

    Working in log space keeps ``P(t_s)`` (which underflows float64 for
    thousands of tasks) exact, and because every factor lies in (0, 1]
    the log-sum has no cancellation: the absolute error of ``log P`` is
    ~``eps * log2(k) * |log P|``, far inside the 1e-10 bar.  Nodes with
    ``log P(t_s) < -200`` are skipped: each of their terms is bounded by
    ``exp(log P(t_s)) / (q_j + u_j t_1) <= exp(-200) * O(k^2)`` (the
    smallest node ``t_1`` is Theta(1/m^2)), i.e. ~1e-78 — and since
    ``log P`` is increasing in ``t``, one binary search finds the cutoff
    without evaluating the pruned nodes.
    """
    k = u.shape[0]
    pi = np.zeros(k + 1, dtype=np.float64)
    # Stay idle iff no task is marked: prod q_i, in log space so a
    # genuinely subnormal idle probability underflows to 0 instead of
    # poisoning the product.
    if not np.any(u >= 1.0):
        pi[k] = np.exp(np.sum(np.log1p(-u)))
    active = np.nonzero(u > 0.0)[0]
    if active.size == 0:
        return pi
    ua = u[active]
    m = (active.size + 1) // 2  # 2m - 1 >= a - 1: exact for the integrand
    t, w = _gauss_legendre_unit(m)
    tm1 = t - 1.0  # q_j + u_j t = 1 + u_j (t - 1), stable via log1p

    def log_poly(ts: float) -> float:
        return float(np.sum(np.log1p(ts * ua)))

    # Binary search the first node whose log-polynomial clears the prune
    # threshold (log P is increasing in t).
    lo, hi = 0, m - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if log_poly(tm1[mid]) > _QUADRATURE_LOG_PRUNE:
            hi = mid
        else:
            lo = mid + 1
    acc = np.zeros(active.size, dtype=np.float64)
    for start in range(lo, m, _QUADRATURE_NODE_BLOCK):
        stop = min(start + _QUADRATURE_NODE_BLOCK, m)
        # F[s, i] = log(q_i + u_i t_s); the row sum is log P(t_s).
        F = np.log1p(np.multiply.outer(tm1[start:stop], ua))
        L = F.sum(axis=1)
        # Integrand values exp(log P - log factor_j), already weighted.
        acc += w[start:stop] @ np.exp(L[:, np.newaxis] - F)
    pi[active] = ua * acc
    return pi


def exact_join_probabilities(u: npt.ArrayLike) -> np.ndarray:
    """Exact per-task join probabilities for an idle ant.

    Same distribution as :func:`enumerate_subset_join_probabilities` —
    the ant marks task ``j`` "underloaded" independently w.p. ``u[j]``
    and joins one uniformly random marked task (idle if none) — but
    computed without touching the ``2^k`` subsets:

    ``pi[j] = u[j] * E[1 / (1 + B_j)]``

    where ``B_j`` is the Poisson-binomial count of *other* marked tasks.
    The expectation is evaluated as the equivalent integral
    ``pi_j = u_j * integral_0^1 P(t)/(q_j + u_j t) dt`` by Gauss-Legendre
    quadrature with enough nodes to be exact (:func:`_quadrature_join`):
    batched matrix ops, no k-step loop, at every ``k``.

    Any change to the bits this returns changes the counting engine's
    draws, so it must come with a bump of
    :data:`repro.store.NUMERICS_VERSION`.

    Parameters
    ----------
    u:
        Per-task mark probabilities in ``[0, 1]``, shape ``(k,)``.

    Returns
    -------
    Array of shape ``(k + 1,)``: entries ``0..k-1`` are join probabilities,
    entry ``k`` is the stay-idle probability.  Sums to 1.
    """
    u = _check_probability_vector(u)
    k = u.shape[0]
    if k == 0:
        return np.ones(1, dtype=np.float64)
    return _normalize_join_distribution(_quadrature_join(u), k)


def enumerate_subset_join_probabilities(u: npt.ArrayLike) -> np.ndarray:
    """Exact per-task join probabilities for an idle ant.

    In Algorithm Ant an idle ant marks each task ``j`` "underloaded"
    independently with probability ``u[j]`` (both of its samples read LACK)
    and then joins one *uniformly at random* among its underloaded tasks,
    staying idle if there are none.  This returns the exact marginal
    distribution over actions, computed by enumerating all ``2^k`` subsets:

    ``pi[j] = sum over subsets S containing j of P[S] / |S|`` for ``j < k``,
    and ``pi[k] = P[empty set]`` is the probability of staying idle.

    Complexity ``O(2^k * k)``, allowed only for ``k <=``
    :data:`ENUMERATION_K_LIMIT`.  Retained as the brute-force test oracle
    for :func:`exact_join_probabilities`, which computes the identical
    distribution in O(k^2) loop-free flops and is what the counting engine
    uses.

    Returns
    -------
    Array of shape ``(k + 1,)``: entries ``0..k-1`` are join probabilities,
    entry ``k`` is the stay-idle probability.  Sums to 1.
    """
    u = _check_probability_vector(u)
    k = u.shape[0]
    if k > ENUMERATION_K_LIMIT:
        raise ConfigurationError(
            f"subset enumeration is exponential in k; k={k} exceeds "
            f"ENUMERATION_K_LIMIT={ENUMERATION_K_LIMIT} "
            "(use exact_join_probabilities)"
        )
    pi = np.zeros(k + 1, dtype=np.float64)
    one_minus = 1.0 - u
    tasks = range(k)
    # P[empty set]: ant saw no underloaded task, stays idle.
    pi[k] = float(np.prod(one_minus))
    for size in range(1, k + 1):
        share = 1.0 / size
        for subset in combinations(tasks, size):
            mask = np.zeros(k, dtype=bool)
            mask[list(subset)] = True
            p_subset = float(np.prod(np.where(mask, u, one_minus)))
            if p_subset == 0.0:
                continue
            for j in subset:
                pi[j] += p_subset * share
    return _normalize_join_distribution(pi, k)
