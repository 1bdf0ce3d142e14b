"""E10 / E11: the Appendix D dichotomy of the trivial algorithm.

Sequentially scheduled, the memoryless join-on-lack / leave-on-overload
rule converges and its steady regret scales like ``Theta(gamma* sum_d)``
(E10 verifies the linear scaling in ``gamma*``).  Synchronously
scheduled it herds: the load flips between ~0 and ~n forever (E11).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.oscillation import oscillation_stats
from repro.analysis.report import format_table
from repro.core.trivial import TrivialAlgorithm
from repro.env.critical import lambda_for_critical_value
from repro.env.demands import DemandVector
from repro.env.feedback import SigmoidFeedback
from repro.experiments.base import Claim, ExperimentResult, experiment, sweep_store
from repro.scenario import (
    AlgorithmSpec,
    DemandSpec,
    EngineSpec,
    FeedbackSpec,
    ScenarioSpec,
    sweep_scenario,
)
from repro.sim.engine import Simulator

__all__ = ["run_e10_trivial_sequential", "run_e11_trivial_synchronous"]


@experiment("E10", "Appendix D.1: trivial algorithm converges sequentially, regret ~ gamma* sum_d")
def run_e10_trivial_sequential(scale: str = "full", seed: int = 0) -> ExperimentResult:
    n = 2000 if scale == "quick" else 4000
    d = n // 4
    rounds = (40 if scale == "quick" else 80) * n  # ~40-80 activations per ant
    gamma_stars = [0.05, 0.1, 0.2]

    spec = ScenarioSpec(
        algorithm=AlgorithmSpec("trivial"),
        demand=DemandSpec("explicit", {"demands": [d], "n": n, "strict": False}),
        feedback=FeedbackSpec("calibrated_sigmoid", {"gamma_star": gamma_stars[0]}),
        engine=EngineSpec("sequential"),
        rounds=rounds,
        seed=seed,
        run_params={"burn_in": rounds // 2},
    )
    with sweep_store() as store:
        out = sweep_scenario(spec, "feedback.gamma_star", gamma_stars, trials=1, store=store)
    rates = out.series("mean_average_regret")
    rows = [[gs, rate, gs * d, rate / (gs * d)] for gs, rate in zip(gamma_stars, rates)]

    res = ExperimentResult("E10", run_e10_trivial_sequential.title, scale)
    res.series["gamma_star"] = np.array(gamma_stars)
    res.series["regret_rate"] = rates
    res.tables.append(
        format_table(
            ["gamma*", "measured R(t)/t", "gamma* * sum_d", "ratio"],
            rows,
            title=f"Trivial algorithm, sequential schedule, n={n}, d={d}",
        )
    )
    # Convergence: the steady regret is far below the synchronous Theta(n)
    # herding scale and scales linearly with gamma*.
    for gs, rate in zip(gamma_stars, rates):
        res.claims.append(
            Claim.upper(f"sequential regret rate well below n (gamma*={gs})", rate, 0.05 * n)
        )
    ratio = rates / np.array(gamma_stars)
    res.claims.append(
        Claim.shape(
            "regret rate scales ~linearly with gamma* (max/min of rate/gamma* <= 3)",
            float(ratio.max() / ratio.min()) <= 3.0,
            measured=float(ratio.max() / ratio.min()),
            bound=3.0,
        )
    )
    res.claims.append(
        Claim.shape("regret increases with gamma*", bool(np.all(np.diff(rates) > 0)))
    )
    return res


@experiment("E11", "Appendix D.2: trivial algorithm oscillates at Theta(n) synchronously")
def run_e11_trivial_synchronous(scale: str = "full", seed: int = 0) -> ExperimentResult:
    n = 2000 if scale == "quick" else 4000
    d = n // 4
    demand = DemandVector(np.array([d], dtype=np.int64), n=n, strict=False)
    gs = 0.1
    lam = lambda_for_critical_value(demand, gamma_star=gs)
    rounds = 2000 if scale == "quick" else 5000

    sim = Simulator(TrivialAlgorithm(), demand, SigmoidFeedback(lam), seed=seed)
    out = sim.run(rounds, trace_stride=1)
    deficits = out.trace.deficits(demand.as_array())[:, 0].astype(float)
    stats = oscillation_stats(deficits, threshold=gs * d)
    # Steady-state window (skip the first few rounds).
    tail = deficits[10:]
    amplitude = float(np.abs(tail).max())
    crossings_per_100 = stats.crossings / (rounds / 100)

    res = ExperimentResult("E11", run_e11_trivial_synchronous.title, scale)
    res.series["deficit_first_40_rounds"] = deficits[:40]
    res.tables.append(
        format_table(
            ["quantity", "value"],
            [
                ["oscillation amplitude (max|deficit|)", amplitude],
                ["amplitude / n", amplitude / n],
                ["zero crossings per 100 rounds", crossings_per_100],
                ["fraction of rounds inside grey zone", stats.fraction_inside],
                ["mean |deficit|", stats.amplitude_mean],
            ],
            title=f"Trivial algorithm, synchronous schedule, n={n}, d={d}",
        )
    )
    res.claims += [
        Claim.lower("oscillation amplitude is Theta(n) (>= n/2)", amplitude, n / 2),
        Claim.lower("persistent oscillation (>= 25 crossings per 100 rounds)",
                    crossings_per_100, 25.0),
        Claim.upper("never settles near demand (fraction inside grey zone)",
                    stats.fraction_inside, 0.2),
    ]
    return res
