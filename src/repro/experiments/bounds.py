"""E6 / E7 / E8: the lower bounds (Theorems 3.3 and 3.5).

E6 regenerates the memory/closeness tradeoff curve: with ``b`` counter
bits the best achievable closeness scales like ``eps(b) ~ 2^-b`` (and no
better, per Theorem 3.3's ``c log(1/eps)`` necessity).  E7 demonstrates
the oscillation-inevitability half of Theorem 3.3: pinning the deficit
at zero provokes a blow-up of ``omega(gamma* d)``.  E8 implements the
Theorem 3.5 indistinguishable-demands adversary and verifies that any
algorithm pays ``>= ~gamma* sum_d`` per round in the worse of the two
worlds.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.oscillation import detect_blowups
from repro.analysis.report import format_table
from repro.automaton.bounded import bounded_memory_family
from repro.core.ant import AntAlgorithm
from repro.core.trivial import TrivialAlgorithm
from repro.env.critical import lambda_for_critical_value
from repro.env.demands import uniform_demands
from repro.env.feedback import SigmoidFeedback, ThresholdFeedback
from repro.experiments.base import Claim, ExperimentResult, colony_spec, experiment, sweep_store
from repro.scenario import AlgorithmSpec, sweep_scenario
from repro.sim.counting import CountingSimulator

__all__ = ["run_e6_memory_tradeoff", "run_e7_oscillation", "run_e8_adversarial_lb"]


@experiment("E6", "Theorem 3.3: memory/closeness tradeoff (closeness ~ 2^-bits)")
def run_e6_memory_tradeoff(scale: str = "full", seed: int = 0) -> ExperimentResult:
    n = 80000 if scale != "quick" else 40000
    gs = 0.01
    gamma = 0.04
    rounds = 150000 if scale != "quick" else 30000
    bits = (1, 5, 6, 7) if scale == "quick" else (1, 5, 6, 7, 8)

    family = bounded_memory_family(gamma, bits)
    rows, closenesses = [], []
    with sweep_store() as store:
        for member in family:
            if member.window > 1:
                params = {"gamma": gamma, "eps": member.eps_effective}
                algorithm = AlgorithmSpec("precise_sigmoid", params)
                step = member.algorithm.step_size
            else:
                algorithm, step = AlgorithmSpec("ant", {"gamma": gamma}), gamma
            spec = colony_spec(n, gs, algorithm, rounds=rounds, burn_in=rounds // 10, seed=seed)
            demand = spec.initial_demand().as_array()
            start = np.round(demand * (1.0 + 2.0 * step)).astype(np.int64).tolist()
            out = sweep_scenario(spec, "engine.initial_loads", [start], trials=1, store=store)
            c = out.summaries[0].mean_closeness
            closenesses.append(c)
            rows.append([member.counter_bits, member.window, member.eps_effective, c])

    res = ExperimentResult("E6", run_e6_memory_tradeoff.title, scale)
    res.series["counter_bits"] = np.array([s.counter_bits for s in family], dtype=float)
    res.series["closeness"] = np.array(closenesses)
    res.tables.append(
        format_table(
            ["counter bits", "median window m", "eps(b)", "measured closeness"],
            rows,
            title=f"Memory/closeness tradeoff, gamma={gamma}, n={n}",
        )
    )
    # Shape claims: closeness decreases with memory and roughly halves
    # per extra bit once in the Precise-Sigmoid regime.
    cl = np.array(closenesses)
    res.claims.append(
        Claim.shape(
            "closeness monotone non-increasing in memory", bool(np.all(np.diff(cl) <= 1e-9))
        )
    )
    ps = cl[1:]  # the Precise-Sigmoid members (bits >= 5)
    halving = ps[:-1] / ps[1:]
    res.claims.append(
        Claim.shape(
            "closeness ~halves per extra counter bit (ratios in [1.4, 2.9])",
            bool(np.all((halving >= 1.4) & (halving <= 2.9))),
            measured=float(halving.mean()),
            bound=2.0,
        )
    )
    return res


@experiment("E7", "Theorem 3.3: pinning the deficit near 0 provokes omega(gamma*d) blow-ups")
def run_e7_oscillation(scale: str = "full", seed: int = 0) -> ExperimentResult:
    """Start exactly demand-matched (deficit pinned at 0, the heart of the
    grey zone) and measure the resulting excursion relative to
    ``gamma* d`` across colony sizes."""
    gs = 0.01
    gamma = 0.025
    sizes = [4000, 8000, 16000] if scale != "quick" else [4000, 8000]
    rounds = 4000
    rows, ratios = [], []
    for i, n in enumerate(sizes):
        demand = uniform_demands(n=n, k=4)
        lam = lambda_for_critical_value(demand, gamma_star=gs)
        sim = CountingSimulator(
            AntAlgorithm(gamma=gamma),
            demand,
            SigmoidFeedback(lam),
            seed=seed + i,
            initial_loads=demand.as_array(),  # deficit exactly 0 everywhere
        )
        out = sim.run(rounds, trace_stride=1)
        deficits = out.trace.deficits(demand.as_array())
        grey_halfwidth = gs * demand.min_demand
        peak = float(np.abs(deficits).max())
        blowups = detect_blowups(deficits[:, 0], grey_halfwidth)
        ratios.append(peak / grey_halfwidth)
        rows.append([n, grey_halfwidth, peak, peak / grey_halfwidth, len(blowups)])

    res = ExperimentResult("E7", run_e7_oscillation.title, scale)
    res.series["n"] = np.array(sizes, dtype=float)
    res.series["blowup_over_grey"] = np.array(ratios)
    res.tables.append(
        format_table(
            ["n", "gamma*d", "peak |deficit|", "peak/(gamma*d)", "#excursions(task 0)"],
            rows,
            title="Blow-up after pinning the deficit at 0 (Algorithm Ant)",
        )
    )
    for n, r in zip(sizes, ratios):
        res.claims.append(
            Claim.lower(f"blow-up exceeds 5x the grey half-width (n={n})", r, 5.0)
        )
    return res


@experiment("E8", "Theorem 3.5: indistinguishable-demands adversary forces regret >= ~gamma* sum_d")
def run_e8_adversarial_lb(scale: str = "full", seed: int = 0) -> ExperimentResult:
    """Fixed-threshold feedback is simultaneously a valid adversarial
    answer for demands ``d`` and ``d' = d - 2 tau``; the transcripts are
    identical, so the average regret over the two worlds is at least
    ``tau`` per task per round for *any* algorithm.  We run Algorithm
    Ant and the trivial algorithm against it."""
    n = 8000 if scale != "quick" else 4000
    k = 4
    demand = uniform_demands(n=n, k=k)
    d = demand.as_array().astype(np.float64)
    gamma_ad = 0.04
    tau = gamma_ad * d / (1.0 + gamma_ad)
    d_prime = d - 2.0 * tau
    thresholds = d * (1.0 - gamma_ad)  # = d'(1+gamma_ad), valid in both worlds
    rounds = 20000 if scale != "quick" else 6000
    burn = rounds // 2

    algorithms = {
        "ant(gamma=0.0625)": AntAlgorithm(gamma=1.0 / 16.0),
        "trivial": TrivialAlgorithm(),
    }
    rows, worst_rates = [], []
    lb = float(tau.sum())  # per-round lower bound on the two-world average
    for i, (name, alg) in enumerate(algorithms.items()):
        fb = ThresholdFeedback(thresholds, d)
        sim = CountingSimulator(alg, demand, fb, seed=seed + i)
        out = sim.run(rounds, trace_stride=1, burn_in=burn)
        loads = out.trace.loads.astype(np.float64)
        steady = loads[loads.shape[0] // 2 :]
        regret_d = np.abs(d[np.newaxis, :] - steady).sum(axis=1).mean()
        regret_dp = np.abs(d_prime[np.newaxis, :] - steady).sum(axis=1).mean()
        avg_two_worlds = 0.5 * (regret_d + regret_dp)
        worst_rates.append(avg_two_worlds)
        rows.append([name, regret_d, regret_dp, avg_two_worlds, lb])

    res = ExperimentResult("E8", run_e8_adversarial_lb.title, scale)
    res.tables.append(
        format_table(
            ["algorithm", "regret rate vs d", "vs d'", "two-world average", "lower bound k*tau"],
            rows,
            title=f"Theorem 3.5 adversary, gamma_ad={gamma_ad}, tau={tau[0]:.1f} per task",
        )
    )
    for (name, _), rate in zip(algorithms.items(), worst_rates):
        res.claims.append(
            Claim.lower(f"two-world average regret rate ({name})", rate, 0.95 * lb)
        )
    res.series["lower_bound"] = np.array([lb])
    res.series["two_world_average"] = np.array(worst_rates)
    res.notes.append(
        "identical transcripts: the feedback depends only on the load, so the "
        "same run serves both worlds; regret is evaluated against each demand."
    )
    return res
