"""E12-E15: tradeoffs, dynamics, and ablations.

E12 quantifies the learning-rate tradeoff the paper discusses (smaller
``gamma``: better steady regret, slower convergence).  E13 exercises
Remark 3.4's dynamic demands (step change mid-run, re-convergence).
E14 is the design ablation for the *two spaced samples* (a one-sample
variant churns).  E15 checks Remark 3.4's correlated-feedback robustness.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.report import format_table
from repro.core.ant import AntAlgorithm
from repro.env.critical import lambda_for_critical_value
from repro.env.demands import StepDemandSchedule, uniform_demands
from repro.env.feedback import SigmoidFeedback
from repro.experiments.base import Claim, ExperimentResult, colony_spec, experiment, sweep_store
from repro.scenario import AlgorithmSpec, EngineSpec, FeedbackSpec, sweep_scenario
from repro.sim.counting import CountingSimulator

__all__ = [
    "run_e12_gamma_tradeoff",
    "run_e13_dynamic_demands",
    "run_e14_one_sample_ablation",
    "run_e15_correlated_feedback",
]


def _rounds_to_converge(loads: np.ndarray, demands: np.ndarray, gamma: float) -> int:
    """First recorded round index where every |deficit| <= 5*gamma*d + 3."""
    band = 5.0 * gamma * demands.astype(float) + 3.0
    ok = np.all(np.abs(demands[np.newaxis, :] - loads) <= band[np.newaxis, :], axis=1)
    idx = np.argmax(ok)
    return int(idx) if ok.any() else int(loads.shape[0])


@experiment("E12", "Learning-rate tradeoff: steady regret vs convergence time")
def run_e12_gamma_tradeoff(scale: str = "full", seed: int = 0) -> ExperimentResult:
    # The counting engine makes the per-round cost independent of n, so
    # both scales use the same colony (d=1000 keeps every sweep point in
    # the regime where the resting band is non-empty: c_s*gamma*d must
    # clear 2*gamma**d plus the O(sqrt(c_s*gamma*d)) pause noise).
    n = 8000
    demand = uniform_demands(n=n, k=4)
    gs = 0.0025
    lam = lambda_for_critical_value(demand, gamma_star=gs)
    gammas = [0.01, 0.02, 0.04, 0.0625]
    rounds = 60000 if scale != "quick" else 15000

    rows, steady, conv = [], [], []
    for i, gamma in enumerate(gammas):
        sim = CountingSimulator(
            AntAlgorithm(gamma=gamma), demand, SigmoidFeedback(lam), seed=seed + i
        )
        out = sim.run(rounds, trace_stride=1, burn_in=rounds // 2)
        t_conv = _rounds_to_converge(
            out.trace.loads.astype(float), demand.as_array(), gamma
        )
        c = out.metrics.closeness(gs, demand.total)
        steady.append(c)
        conv.append(t_conv)
        rows.append([gamma, c, t_conv])

    res = ExperimentResult("E12", run_e12_gamma_tradeoff.title, scale)
    res.series["gamma"] = np.array(gammas)
    res.series["steady_closeness"] = np.array(steady)
    res.series["rounds_to_converge"] = np.array(conv, dtype=float)
    res.tables.append(
        format_table(
            ["gamma", "steady closeness", "rounds to enter 5*gamma*d band"],
            rows,
            title=f"Algorithm Ant tradeoff, gamma*={gs}, n={n} (start: all idle)",
        )
    )
    res.claims += [
        Claim.shape(
            "steady closeness increases with gamma",
            bool(np.all(np.diff(steady) > 0)),
        ),
        Claim.shape(
            "convergence time decreases with gamma",
            bool(np.all(np.diff(conv) <= 0)),
        ),
    ]
    return res


@experiment("E13", "Remark 3.4: self-stabilization under a demand step change")
def run_e13_dynamic_demands(scale: str = "full", seed: int = 0) -> ExperimentResult:
    n = 8000 if scale != "quick" else 4000
    k = 4
    base = uniform_demands(n=n, k=k)
    # Mid-run, shift demand between tasks (keep the total constant).
    shifted = base.with_demands(
        base.as_array() + np.array([base.min_demand // 2, -(base.min_demand // 2), 0, 0])
    )
    rounds = 40000 if scale != "quick" else 10000
    change_at = rounds // 2
    schedule = StepDemandSchedule(steps=((0, base), (change_at, shifted)))
    gs = 0.01
    lam = lambda_for_critical_value(base, gamma_star=gs)
    gamma = 0.025

    sim = CountingSimulator(AntAlgorithm(gamma=gamma), schedule, SigmoidFeedback(lam), seed=seed)
    out = sim.run(rounds, trace_stride=1)
    loads = out.trace.loads.astype(float)

    # Closeness in the two steady windows (before and after the change).
    def window_closeness(lo: int, hi: int, demands: np.ndarray) -> float:
        w = loads[lo:hi]
        r = np.abs(demands[np.newaxis, :] - w).sum(axis=1).mean()
        return float(r / (gs * demands.sum()))

    pre = window_closeness(change_at // 2, change_at, base.as_array())
    post = window_closeness((rounds + change_at) // 2, rounds, shifted.as_array())
    # Re-convergence time after the change.
    post_loads = loads[change_at:]
    reconv = _rounds_to_converge(post_loads, shifted.as_array(), gamma)

    res = ExperimentResult("E13", run_e13_dynamic_demands.title, scale)
    res.tables.append(
        format_table(
            ["window", "closeness"],
            [
                ["steady before change", pre],
                ["steady after change", post],
                ["re-convergence rounds", float(reconv)],
            ],
            title=f"Demand step at round {change_at}: {base.as_array()} -> {shifted.as_array()}",
        )
    )
    bound = 5.0 * gamma / gs
    res.claims += [
        Claim.upper("closeness before the change", pre, bound),
        Claim.upper("closeness after the change", post, bound),
        Claim.upper("re-convergence within a quarter of the horizon", float(reconv), rounds / 4),
    ]
    res.series["deficit_task0"] = (
        schedule.demands_at(rounds).as_array()[0] - loads[:: max(rounds // 200, 1), 0]
    )
    return res


@experiment("E14", "Ablation: two spaced samples vs one sample (stable zone matters)")
def run_e14_one_sample_ablation(scale: str = "full", seed: int = 0) -> ExperimentResult:
    n = 8000 if scale != "quick" else 4000
    gs = 0.01
    gamma = 0.025
    rounds = 16000 if scale != "quick" else 6000
    burn = rounds // 2

    agent = EngineSpec("agent")
    summaries = []
    with sweep_store() as store:
        for name in ("ant", "ant_one_sample"):
            variant = AlgorithmSpec(name, {"gamma": gamma})
            spec = colony_spec(n, gs, variant, rounds=rounds, burn_in=burn, seed=seed, engine=agent)
            out = sweep_scenario(spec, "algorithm.gamma", [gamma], trials=1, store=store)
            summaries += out.summaries
    two, one = summaries
    c_two, c_one = two.mean_closeness, one.mean_closeness
    s_two, s_one = two.mean_switches_per_round, one.mean_switches_per_round

    res = ExperimentResult("E14", run_e14_one_sample_ablation.title, scale)
    res.tables.append(
        format_table(
            ["variant", "closeness", "switches/round", "max|deficit|"],
            [
                ["two spaced samples (Algorithm Ant)", c_two, s_two, two.mean_max_abs_deficit],
                ["one sample (ablation)", c_one, s_one, one.mean_max_abs_deficit],
            ],
            title=f"Sample-spacing ablation, gamma={gamma}, n={n}",
        )
    )
    res.claims += [
        Claim.shape(
            "one-sample variant is at least 2x worse in closeness",
            c_one >= 2.0 * c_two,
            measured=c_one / max(c_two, 1e-12),
            bound=2.0,
        ),
        Claim.upper("two-sample closeness within Theorem 3.1 bound", c_two, 5.0 * gamma / gs),
    ]
    return res


@experiment("E15", "Remark 3.4: robustness to correlated feedback")
def run_e15_correlated_feedback(scale: str = "full", seed: int = 0) -> ExperimentResult:
    n = 8000 if scale != "quick" else 4000
    gs = 0.01
    gamma = 0.025
    rounds = 16000 if scale != "quick" else 6000
    burn = rounds // 2
    rhos = [0.0, 0.5, 1.0]

    ant, agent = AlgorithmSpec("ant", {"gamma": gamma}), EngineSpec("agent")
    spec = colony_spec(n, gs, ant, rounds=rounds, burn_in=burn, seed=seed, engine=agent)
    lam = lambda_for_critical_value(spec.initial_demand(), gamma_star=gs)
    sigmoid = FeedbackSpec("sigmoid", {"lam": lam})
    correlated = FeedbackSpec("correlated_sigmoid", {"lam": lam, "rho": rhos[1]})
    summaries = []
    with sweep_store() as store:
        # rho = 0 is the uncorrelated model, one point; the correlated one sweeps rho > 0.
        for feedback, parameter, values in [
            (sigmoid, "feedback.lam", [lam]),
            (correlated, "feedback.rho", rhos[1:]),
        ]:
            point = dataclasses.replace(spec, feedback=feedback)
            summaries += sweep_scenario(point, parameter, values, trials=1, store=store).summaries
    closenesses = [s.mean_closeness for s in summaries]
    rows = [[rho, s.mean_closeness, s.mean_max_abs_deficit] for rho, s in zip(rhos, summaries)]

    res = ExperimentResult("E15", run_e15_correlated_feedback.title, scale)
    res.tables.append(
        format_table(
            ["correlation rho", "closeness", "max|deficit|"],
            rows,
            title=f"Algorithm Ant under correlated sigmoid feedback, gamma={gamma}",
        )
    )
    bound = 5.0 * gamma / gs
    for rho, c in zip(rhos, closenesses):
        res.claims.append(Claim.upper(f"closeness at rho={rho}", c, bound))
    res.series["rho"] = np.array(rhos)
    res.series["closeness"] = np.array(closenesses)
    return res
