"""E3 / E4 / E5: the closeness theorems (3.1 and 3.2).

E3 sweeps Algorithm Ant's learning rate under both noise models and
compares the measured closeness with the ``5 gamma / gamma*`` bound.
E4 verifies self-stabilization: the same steady state is reached from
adversarial initial configurations.  E5 sweeps Algorithm Precise
Sigmoid's precision ``eps`` and verifies the ``eps * gamma * sum_d``
regret rate (linear in eps) — the separation from Algorithm Ant.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_table
from repro.analysis.theory import ant_closeness_bound, precise_sigmoid_rate
from repro.experiments.base import Claim, ExperimentResult, colony_spec, experiment, sweep_store
from repro.scenario import AlgorithmSpec, EngineSpec, FeedbackSpec, sweep_scenario

__all__ = ["run_e3_ant_closeness", "run_e4_self_stabilization", "run_e5_precise_sigmoid"]


@experiment("E3", "Theorem 3.1: Algorithm Ant closeness <= 5*gamma/gamma*, both noise models")
def run_e3_ant_closeness(scale: str = "full", seed: int = 0) -> ExperimentResult:
    n = 8000 if scale != "quick" else 4000
    gs = 0.01
    rounds = 40000 if scale != "quick" else 8000
    trials = 3 if scale != "quick" else 2
    gammas = [2 * gs, 2.5 * gs, 4 * gs, 6 * gs]

    ant = AlgorithmSpec("ant", {"gamma": gammas[0]})
    # Sigmoid noise: counting engine (exact in distribution, O(k)/round).
    sig_spec = colony_spec(n, gs, ant, rounds=rounds, burn_in=rounds // 2, seed=seed)
    # Adversarial noise (random-in-grey): agent engine, half the rounds.
    random = FeedbackSpec("adversarial", {"gamma_ad": gs, "strategy": "random"})
    adv = {"feedback": random, "engine": EngineSpec("agent")}
    adv_spec = colony_spec(n, gs, ant, rounds=rounds // 2, burn_in=rounds // 4, seed=seed, **adv)
    with sweep_store() as store:
        sig_out, adv_out = (
            sweep_scenario(spec, "algorithm.gamma", gammas, trials=trials, store=store)
            for spec in (sig_spec, adv_spec)
        )
    sig_closeness = sig_out.series("mean_closeness")
    adv_closeness = adv_out.series("mean_closeness")
    bounds = [ant_closeness_bound(gamma, gs) for gamma in gammas]
    rows = [
        [f"{gamma / gs:.1f}", ms, ma, bound]
        for gamma, ms, ma, bound in zip(gammas, sig_closeness, adv_closeness, bounds)
    ]
    demand = sig_spec.initial_demand()

    res = ExperimentResult("E3", run_e3_ant_closeness.title, scale)
    res.series["gamma_over_gamma_star"] = np.array([g / gs for g in gammas])
    res.series["closeness_sigmoid"] = sig_closeness
    res.series["closeness_adversarial"] = adv_closeness
    res.series["bound"] = np.array(bounds)
    res.tables.append(
        format_table(
            ["gamma/gamma*", "closeness (sigmoid)", "closeness (adversarial)", "bound 5g/g*"],
            rows,
            title=f"Algorithm Ant closeness, n={demand.n}, k={demand.k}, d={demand.min_demand}",
        )
    )
    for g, ms, ma, b in zip(gammas, sig_closeness, adv_closeness, bounds):
        res.claims.append(Claim.upper(f"sigmoid closeness at gamma={g:g}", ms, b))
        res.claims.append(Claim.upper(f"adversarial closeness at gamma={g:g}", ma, b))
    # Shape: closeness grows with gamma (the bound is linear in gamma).
    res.claims.append(
        Claim.shape(
            "closeness increases with gamma (sigmoid)",
            bool(np.all(np.diff(sig_closeness) > 0)),
        )
    )
    return res


@experiment("E4", "Theorem 3.1: self-stabilization from adversarial initial configurations")
def run_e4_self_stabilization(scale: str = "full", seed: int = 0) -> ExperimentResult:
    n = 8000 if scale != "quick" else 4000
    gs = 0.01
    gamma = 0.025
    rounds = 30000 if scale != "quick" else 8000

    spec = colony_spec(
        n, gs, AlgorithmSpec("ant", {"gamma": gamma}), rounds=rounds, burn_in=rounds // 2, seed=seed
    )
    demand = spec.initial_demand().as_array()
    starts = ["all_idle", "all_on_first_task", "demand_matched", "half_demand"]
    loads = [[0, 0, 0, 0], [n, 0, 0, 0], demand.tolist(), (demand // 2).tolist()]
    with sweep_store() as store:
        out = sweep_scenario(spec, "engine.initial_loads", loads, trials=1, store=store)
    finals = dict(zip(starts, out.series("mean_closeness")))
    deficits = out.series("mean_max_abs_deficit")
    rows = [[name, c, d] for (name, c), d in zip(finals.items(), deficits)]

    res = ExperimentResult("E4", run_e4_self_stabilization.title, scale)
    res.tables.append(
        format_table(
            ["initial configuration", "steady closeness", "max|deficit| after burn-in"],
            rows,
            title=f"Algorithm Ant, gamma={gamma}, n={n}",
        )
    )
    bound = ant_closeness_bound(gamma, gs)
    for name, c in finals.items():
        res.claims.append(Claim.upper(f"closeness from {name}", c, bound))
    spread = max(finals.values()) - min(finals.values())
    res.claims.append(
        Claim.upper("steady closeness independent of start (spread)", spread, 0.5 * bound)
    )
    return res


@experiment("E5", "Theorem 3.2: Precise Sigmoid regret rate = eps*gamma*sum_d (linear in eps)")
def run_e5_precise_sigmoid(scale: str = "full", seed: int = 0) -> ExperimentResult:
    n = 80000 if scale != "quick" else 40000
    gs = 0.01
    gamma = 0.04
    rounds = 200000 if scale != "quick" else 40000
    eps_values = [0.999, 0.5, 0.25]

    # Algorithm Ant on the same colony, for the separation claim.
    ant = AlgorithmSpec("ant", {"gamma": gamma})
    ant_spec = colony_spec(n, gs, ant, rounds=rounds // 4, burn_in=rounds // 8, seed=seed)
    demand = ant_spec.initial_demand()
    points = []
    with sweep_store() as store:
        for eps in eps_values:
            algorithm = AlgorithmSpec("precise_sigmoid", {"gamma": gamma, "eps": eps})
            spec = colony_spec(n, gs, algorithm, rounds=rounds, burn_in=rounds // 10, seed=seed)
            step = algorithm.build().step_size
            start = np.round(demand.as_array() * (1.0 + 2.0 * step)).astype(np.int64).tolist()
            out = sweep_scenario(spec, "engine.initial_loads", [start], trials=1, store=store)
            points += out.summaries
        out = sweep_scenario(ant_spec, "algorithm.gamma", [gamma], trials=1, store=store)
    [ant_out] = out.summaries
    rates = [p.mean_average_regret for p in points]
    theory = [precise_sigmoid_rate(eps, gamma, demand.total) for eps in eps_values]
    rows = [
        [eps, rate, bound, p.mean_closeness]
        for eps, rate, bound, p in zip(eps_values, rates, theory, points)
    ]
    ant_c = ant_out.mean_average_regret

    res = ExperimentResult("E5", run_e5_precise_sigmoid.title, scale)
    res.series["eps"] = np.array(eps_values)
    res.series["measured_rate"] = np.array(rates)
    res.series["theory_rate"] = np.array(theory)
    rows.append(["(Algorithm Ant)", ant_c, float("nan"), ant_out.mean_closeness])
    res.tables.append(
        format_table(
            ["eps", "measured R(t)/t", "theory eps*g*sum_d", "closeness"],
            rows,
            title=f"Precise Sigmoid, gamma={gamma}, gamma*={gs}, n={n}",
        )
    )
    for eps, rate, bound in zip(eps_values, rates, theory):
        res.claims.append(Claim.upper(f"rate at eps={eps}", rate, bound))
    # Linearity in eps: rate(eps)/eps roughly constant (within 2x).
    per_eps = np.array(rates) / np.array(eps_values)
    res.claims.append(
        Claim.shape(
            "rate scales linearly with eps (max/min of rate/eps <= 2)",
            float(per_eps.max() / per_eps.min()) <= 2.0,
            measured=float(per_eps.max() / per_eps.min()),
            bound=2.0,
        )
    )
    res.claims.append(
        Claim.shape(
            "Precise Sigmoid beats Algorithm Ant at every eps",
            bool(np.all(np.array(rates) < ant_c)),
        )
    )
    return res
