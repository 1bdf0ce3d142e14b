"""E9: Theorem 3.6 — Algorithm Precise Adversarial.

Under adversarial noise, Precise Adversarial achieves ``(1+eps)``-close
allocations (vs the Theorem 3.5 lower bound of 1), and switches tasks far
less often than Algorithm Ant — both measured here, against several grey
-zone adversary strategies.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_table
from repro.analysis.theory import precise_adversarial_rate
from repro.experiments.base import Claim, ExperimentResult, colony_spec, experiment, sweep_store
from repro.scenario import AlgorithmSpec, EngineSpec, FeedbackSpec, sweep_scenario
from repro.types import assignment_from_loads

__all__ = ["run_e9_precise_adversarial"]


@experiment("E9", "Theorem 3.6: Precise Adversarial is (1+eps)-close with few switches")
def run_e9_precise_adversarial(scale: str = "full", seed: int = 0) -> ExperimentResult:
    n = 8000 if scale != "quick" else 4000
    gs = 0.01  # gamma_ad = the adversarial critical value
    gamma = 0.025
    eps = 0.5
    rounds = 30000 if scale != "quick" else 8000
    strategies = ["random", "push_away"] if scale == "quick" else [
        "random", "push_away", "always_lack", "correct",
    ]

    adv = {"feedback": FeedbackSpec("adversarial", {"gamma_ad": gs}), "engine": EngineSpec("agent")}
    pa = AlgorithmSpec("precise_adversarial", {"gamma": gamma, "eps": eps})
    pa_spec = colony_spec(n, gs, pa, rounds=rounds, burn_in=rounds // 2, seed=seed, **adv)
    ant = AlgorithmSpec("ant", {"gamma": gamma})
    ant_spec = colony_spec(n, gs, ant, rounds=rounds // 2, burn_in=rounds // 4, seed=seed, **adv)
    demand = pa_spec.initial_demand()
    start = assignment_from_loads(
        np.round(demand.as_array() * (1.0 + 2.0 * gamma)).astype(np.int64), n
    ).tolist()
    with sweep_store() as store:
        out_pa, out_ant = (
            sweep_scenario(
                spec.with_param("engine.initial_assignment", start),
                "feedback.strategy",
                strategies,
                trials=1,
                store=store,
            )
            for spec in (pa_spec, ant_spec)
        )
    bound_rate = precise_adversarial_rate(eps, gamma, demand.total)
    bound_closeness = bound_rate / (gs * demand.total)

    pa_closenesses = out_pa.series("mean_closeness")
    pa_switches = out_pa.series("mean_switches_per_round")
    ant_switches = out_ant.series("mean_switches_per_round")
    switch_ratios = pa_switches / np.maximum(ant_switches, 1e-12)
    rows = list(
        zip(strategies, pa_closenesses, out_ant.series("mean_closeness"), pa_switches, ant_switches)
    )

    res = ExperimentResult("E9", run_e9_precise_adversarial.title, scale)
    res.tables.append(
        format_table(
            [
                "adversary",
                "PA closeness",
                "Ant closeness",
                "PA switches/round",
                "Ant switches/round",
            ],
            rows,
            title=f"Precise Adversarial (eps={eps}) vs Algorithm Ant, gamma_ad={gs}, gamma={gamma}",
        )
    )
    for strat, c in zip(strategies, pa_closenesses):
        res.claims.append(
            Claim.upper(f"PA closeness vs (1+eps)gamma/gamma* bound ({strat})", c, bound_closeness)
        )
    res.claims.append(
        Claim.shape(
            "PA switches an order of magnitude less than Ant (all adversaries)",
            bool(np.all(switch_ratios < 0.1)),
            measured=float(np.max(switch_ratios)),
            bound=0.1,
        )
    )
    res.series["pa_closeness"] = pa_closenesses
    res.series["switch_ratio_pa_over_ant"] = switch_ratios
    return res
