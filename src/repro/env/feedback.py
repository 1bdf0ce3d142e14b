"""Noise models: how ants perceive task deficits (Section 2.2).

Three feedback models from the paper plus one robustness extension:

* :class:`SigmoidFeedback` — the stochastic model: each ant independently
  reads ``LACK`` with probability ``s(Delta) = 1/(1+exp(-lambda Delta))``.
* :class:`AdversarialFeedback` — deterministic and correct whenever the
  deficit is outside the grey zone ``[-gamma_ad d, +gamma_ad d]``; inside,
  a pluggable :class:`~repro.env.adversary.AdversaryStrategy` chooses.
* :class:`ExactBinaryFeedback` — the noise-free model of Cornejo et
  al. [11] (``LACK`` iff ``W <= d``), used as the baseline substrate.
* :class:`CorrelatedSigmoidFeedback` — Remark 3.4: feedback may be
  arbitrarily correlated across ants as long as the marginal error
  probability outside the grey zone stays tiny; we implement the extreme
  case where with probability ``rho`` all ants share a single draw.

All models expose the same two entry points used by the engines:

* :meth:`FeedbackModel.lack_probabilities` — per-task marginal
  ``P[LACK]`` (the O(k) counting engine consumes this; only available when
  feedback is i.i.d. across ants, signalled by ``iid_across_ants``);
* :meth:`FeedbackModel.sample_lack_matrix` — an ``(n_ants, k)`` boolean
  draw (True == LACK) for the agent-level engine.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.env.adversary import AdversaryStrategy, CorrectInGreyZone
from repro.exceptions import ConfigurationError
from repro.types import LackMatrix, NoiseKind, TaskVector
from repro.util.mathx import logistic, sigmoid_lack_probability
from repro.util.validation import check_in_range, check_positive, check_probability

__all__ = [
    "FeedbackModel",
    "check_lam_task_count",
    "SigmoidFeedback",
    "AdversarialFeedback",
    "ExactBinaryFeedback",
    "CorrelatedSigmoidFeedback",
    "ThresholdFeedback",
]


class FeedbackModel(abc.ABC):
    """Abstract environment feedback.

    A model is queried once per round with the previous round's deficits
    (sub-round 1 of the paper's round structure) and produces per-ant
    binary signals.
    """

    #: Which paper noise model this implements.
    kind: NoiseKind

    #: True when signals are independent and identically distributed across
    #: ants, which is what the O(k) counting engine requires.
    iid_across_ants: bool = True

    @abc.abstractmethod
    def lack_probabilities(self, deficits: np.ndarray) -> TaskVector:
        """Marginal ``P[feedback = LACK]`` per task for the given deficits."""

    def sample_lack_matrix(
        self,
        deficits: np.ndarray,
        n_ants: int,
        rng: np.random.Generator,
        *,
        t: int = 0,
        demands: np.ndarray | None = None,
    ) -> LackMatrix:
        """Sample an ``(n_ants, k)`` boolean LACK matrix.

        The default implementation draws i.i.d. Bernoulli rows from
        :meth:`lack_probabilities`; deterministic / adversarial models
        override it.
        """
        p = self.lack_probabilities(deficits)
        return rng.random((n_ants, p.shape[0])) < p[np.newaxis, :]

    def reset(self) -> None:
        """Clear any per-run state (adversary memory).  Default: no-op."""


def _coerce_lam(lam) -> float | np.ndarray:
    """Validate a scalar-or-vector sigmoid steepness ``lambda``.

    Scalars go through :func:`check_positive`; sequences become a 1-d
    float64 vector of per-task steepnesses, every entry positive.  The
    vector's length is checked against the deficit vector at query time
    (the model does not know ``k`` at construction).
    """
    if np.ndim(lam) == 0:
        return check_positive("lam", lam)
    arr = np.asarray(lam, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError(
            f"per-task lam must be a scalar or non-empty 1-d vector, "
            f"got shape {arr.shape}"
        )
    if np.any(np.isnan(arr)) or np.any(arr <= 0.0):
        raise ConfigurationError(f"every per-task lam must be > 0, got {arr}")
    return arr


def _format_lam(lam) -> str:
    if np.ndim(lam) == 0:
        return f"{lam:g}"
    return f"per-task[{lam.size}]"


def check_lam_task_count(lam, k: int) -> None:
    """Reject a per-task ``lam`` whose length differs from the task count.

    Broadcasting would silently accept e.g. a length-1 vector against any
    ``k``, so the check is explicit.  Shared by the models (at query time)
    and the registry factories (at spec build time)."""
    if np.ndim(lam) == 0:
        return
    if lam.size != k:
        raise ConfigurationError(
            f"per-task lam has {lam.size} entries but the scenario "
            f"has k={k} tasks"
        )


class SigmoidFeedback(FeedbackModel):
    """The paper's stochastic sigmoid noise (Section 2.2).

    Parameters
    ----------
    lam:
        Sigmoid steepness ``lambda > 0``.  Larger values sharpen the
        transition, shrinking the grey zone (and the critical value).
        Either a scalar (every task equally noisy, the paper's model) or
        a length-``k`` vector of per-task steepnesses (heterogeneous
        sensing: e.g. foraging deficits are easier to perceive than
        brood-care deficits).  A vector is validated against the deficit
        vector's length on every query.
    """

    kind = NoiseKind.SIGMOID
    iid_across_ants = True

    def __init__(self, lam) -> None:
        self.lam = _coerce_lam(lam)

    def lack_probabilities(self, deficits: np.ndarray) -> TaskVector:
        deficits = np.asarray(deficits, dtype=np.float64)
        check_lam_task_count(self.lam, deficits.shape[-1])
        # ``lam`` was validated on construction: this is
        # sigmoid_lack_probability without its per-call re-validation,
        # which costs more than the sigmoid itself at small k.
        return logistic(self.lam * deficits)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SigmoidFeedback(lam={_format_lam(self.lam)})"


class ExactBinaryFeedback(FeedbackModel):
    """Noise-free binary feedback of Cornejo et al. [11].

    All ants read ``LACK`` iff the load does not exceed the demand
    (``Delta >= 0``), ``OVERLOAD`` otherwise.  This is the sharp-threshold
    model whose unrealistic precision motivated the paper.
    """

    kind = NoiseKind.EXACT
    iid_across_ants = True

    def lack_probabilities(self, deficits: np.ndarray) -> TaskVector:
        return (np.asarray(deficits, dtype=np.float64) >= 0.0).astype(np.float64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ExactBinaryFeedback()"


class AdversarialFeedback(FeedbackModel):
    """Adversarial noise (Section 2.2): correct outside the grey zone.

    For task ``j`` with deficit ``Delta``:

    * ``Delta >  gamma_ad * d(j)``  -> every ant reads LACK;
    * ``Delta < -gamma_ad * d(j)``  -> every ant reads OVERLOAD;
    * otherwise the :class:`AdversaryStrategy` picks the signals
      (possibly different per ant, possibly history-dependent).

    Parameters
    ----------
    gamma_ad:
        Grey-zone half-width as a fraction of demand; this *is* the
        critical value ``gamma*`` of the adversarial model.
    strategy:
        Grey-zone behaviour; defaults to the benign
        :class:`~repro.env.adversary.CorrectInGreyZone`.
    """

    kind = NoiseKind.ADVERSARIAL
    iid_across_ants = False

    def __init__(
        self,
        gamma_ad: float,
        strategy: AdversaryStrategy | None = None,
    ) -> None:
        self.gamma_ad = check_in_range(
            "gamma_ad", gamma_ad, 0.0, 1.0, inclusive_low=False, inclusive_high=False
        )
        self.strategy = strategy if strategy is not None else CorrectInGreyZone()

    def lack_probabilities(self, deficits: np.ndarray) -> TaskVector:
        raise ConfigurationError(
            "AdversarialFeedback has no i.i.d. marginals; use sample_lack_matrix "
            "(the counting engine only supports i.i.d. noise models)"
        )

    def sample_lack_matrix(
        self,
        deficits: np.ndarray,
        n_ants: int,
        rng: np.random.Generator,
        *,
        t: int = 0,
        demands: np.ndarray | None = None,
    ) -> LackMatrix:
        if demands is None:
            raise ConfigurationError("AdversarialFeedback requires the demand vector")
        deficits = np.asarray(deficits, dtype=np.float64)
        demands = np.asarray(demands, dtype=np.float64)
        half = self.gamma_ad * demands
        k = deficits.shape[0]
        out = np.empty((n_ants, k), dtype=bool)
        lack_zone = deficits > half
        over_zone = deficits < -half
        grey = ~(lack_zone | over_zone)
        out[:, lack_zone] = True
        out[:, over_zone] = False
        if np.any(grey):
            grey_signals = self.strategy.grey_feedback(
                t=t,
                deficits=deficits,
                demands=demands,
                grey_mask=grey,
                n_ants=n_ants,
                rng=rng,
            )
            grey_signals = np.asarray(grey_signals, dtype=bool)
            if grey_signals.shape == (int(grey.sum()),):
                out[:, grey] = grey_signals[np.newaxis, :]
            elif grey_signals.shape == (n_ants, int(grey.sum())):
                out[:, grey] = grey_signals
            else:
                raise ConfigurationError(
                    f"adversary strategy returned shape {grey_signals.shape}; expected "
                    f"({int(grey.sum())},) or ({n_ants}, {int(grey.sum())})"
                )
        return out

    def reset(self) -> None:
        self.strategy.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AdversarialFeedback(gamma_ad={self.gamma_ad:g}, strategy={self.strategy!r})"


class ThresholdFeedback(FeedbackModel):
    """Deterministic load-threshold feedback (Theorem 3.5 construction).

    Every ant reads LACK iff the task's load satisfies ``W <= c_j`` for a
    fixed per-task threshold ``c_j``.  Choosing ``c_j`` anywhere in
    ``[d(1-gamma_ad), d(1+gamma_ad)]`` makes this a *valid* adversarial
    feedback for demand ``d`` — and the same threshold is simultaneously
    valid for the shifted demand ``d' = d - 2 tau`` (``tau ~ gamma_ad d``),
    so the two worlds generate identical transcripts and no algorithm can
    serve both: the Theorem 3.5 lower bound (experiment E8).

    Parameters
    ----------
    thresholds:
        Per-task load thresholds ``c_j``, shape ``(k,)``.
    demands:
        Demand vector the simulation runs with (needed to translate the
        engine's deficits back into loads).
    """

    kind = NoiseKind.ADVERSARIAL
    iid_across_ants = True  # deterministic == trivially i.i.d.

    def __init__(self, thresholds: np.ndarray, demands: np.ndarray) -> None:
        self.thresholds = np.asarray(thresholds, dtype=np.float64)
        self.demands = np.asarray(demands, dtype=np.float64)
        if self.thresholds.shape != self.demands.shape or self.thresholds.ndim != 1:
            raise ConfigurationError("thresholds and demands must be matching 1-d vectors")

    def lack_probabilities(self, deficits: np.ndarray) -> TaskVector:
        loads = self.demands - np.asarray(deficits, dtype=np.float64)
        return (loads <= self.thresholds).astype(np.float64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThresholdFeedback(thresholds={self.thresholds})"


class CorrelatedSigmoidFeedback(FeedbackModel):
    """Sigmoid noise with cross-ant correlation (Remark 3.4).

    With probability ``rho`` (per round, per task) every ant receives one
    *shared* draw from the sigmoid; otherwise the draws are i.i.d. as in
    :class:`SigmoidFeedback`.  The marginal per-ant distribution is
    unchanged, so the theorem guarantees continue to apply as long as the
    marginal error probability outside the grey zone is small — which is
    exactly what Remark 3.4 claims and experiment E15 checks.
    """

    kind = NoiseKind.SIGMOID
    iid_across_ants = False  # correlated draws: counting engine not exact

    def __init__(self, lam, rho: float) -> None:
        self.lam = _coerce_lam(lam)
        self.rho = check_probability("rho", rho)

    def lack_probabilities(self, deficits: np.ndarray) -> TaskVector:
        check_lam_task_count(self.lam, np.asarray(deficits).shape[-1])
        return sigmoid_lack_probability(deficits, self.lam)

    def sample_lack_matrix(
        self,
        deficits: np.ndarray,
        n_ants: int,
        rng: np.random.Generator,
        *,
        t: int = 0,
        demands: np.ndarray | None = None,
    ) -> LackMatrix:
        p = self.lack_probabilities(deficits)
        k = p.shape[0]
        iid = rng.random((n_ants, k)) < p[np.newaxis, :]
        shared_draw = rng.random(k) < p
        shared_mask = rng.random(k) < self.rho
        out = np.where(shared_mask[np.newaxis, :], shared_draw[np.newaxis, :], iid)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CorrelatedSigmoidFeedback(lam={_format_lam(self.lam)}, rho={self.rho:g})"
