"""E1 / E2 / E16: figure-level experiments.

E1 is the feedback-probability diagram (sigmoid of the overload with the
grey zone marked); E2 is the anatomy of one Algorithm-Ant phase (two
samples spaced by the temporary pause, and the stable zone).  E16 is the
heterogeneity figure the demand-spectrum generators opened: regret /
closeness as the demand spectrum skews (power-law and log-normal, with
per-task ``lambda`` calibrated to an equal relative grey zone), rendered
*from stored sweep records* so re-rendering the figure is free.  Without
matplotlib the *data series* of each figure is regenerated and rendered
as an ASCII plot.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.analysis.report import format_table
from repro.analysis.theory import stable_zone
from repro.core.ant import AntAlgorithm
from repro.env.critical import critical_value_sigmoid, lambda_for_critical_value
from repro.env.demands import lognormal_demands, powerlaw_demands, uniform_demands
from repro.env.feedback import SigmoidFeedback
from repro.experiments.base import Claim, ExperimentResult, experiment
from repro.sim.engine import Simulator
from repro.types import assignment_from_loads
from repro.util.ascii_plot import line_plot

__all__ = ["run_e1_feedback_curve", "run_e2_phase_anatomy", "run_e16_spectrum_skew"]


@experiment("E1", "Figure 1: probability of OVERLOAD feedback vs overload, grey zone")
def run_e1_feedback_curve(scale: str = "full", seed: int = 0) -> ExperimentResult:
    """Regenerate Figure 1's curve and check its three defining properties.

    1. ``P[feedback=OVERLOAD] = 1/2`` at deficit 0;
    2. outside the grey zone the wrong feedback has probability <= p_fail;
    3. the curve is monotone in the overload.
    """
    n = 2000 if scale == "quick" else 10000
    demand = uniform_demands(n=n, k=1)
    d = demand.min_demand
    p_fail = 1e-6
    gamma_star = 0.05
    lam = lambda_for_critical_value(demand, gamma_star=gamma_star, p_fail=p_fail)
    model = SigmoidFeedback(lam)

    overloads = np.linspace(-2.0 * gamma_star * d, 2.0 * gamma_star * d, 81)
    deficits = -overloads
    p_overload = 1.0 - model.lack_probabilities(deficits)

    gs_check = critical_value_sigmoid(demand, lam, p_fail=p_fail)
    at_zero = float(1.0 - model.lack_probabilities(np.array([0.0]))[0])
    wrong_right_of_grey = float(model.lack_probabilities(np.array([-gamma_star * d]))[0])
    wrong_left_of_grey = float(1.0 - model.lack_probabilities(np.array([gamma_star * d]))[0])
    monotone = bool(np.all(np.diff(p_overload) >= -1e-12))

    res = ExperimentResult("E1", run_e1_feedback_curve.title, scale)
    res.series["overload"] = overloads
    res.series["p_overload_feedback"] = p_overload
    res.tables.append(
        line_plot(
            overloads,
            p_overload,
            title=(
                f"Figure 1: P[OVERLOAD feedback] vs overload "
                f"(grey zone +/- {gamma_star * d:.0f})"
            ),
            xlabel="overload (-Delta)",
            ylabel="P[overload]",
        )
    )
    res.tables.append(
        format_table(
            ["quantity", "value"],
            [
                ["lambda", lam],
                ["gamma* (recomputed)", gs_check],
                ["grey zone half-width", gamma_star * d],
                ["P[overload] at Delta=0", at_zero],
                ["P[wrong] at +grey boundary", wrong_left_of_grey],
                ["P[wrong] at -grey boundary", wrong_right_of_grey],
            ],
        )
    )
    res.claims += [
        Claim.upper("P[overload]=1/2 at deficit 0 (|p-1/2|)", abs(at_zero - 0.5), 1e-9),
        Claim.upper(
            "wrong-feedback prob at +boundary <= p_fail", wrong_left_of_grey, p_fail * 1.001
        ),
        Claim.upper(
            "wrong-feedback prob at -boundary <= p_fail", wrong_right_of_grey, p_fail * 1.001
        ),
        Claim.shape("curve monotone in overload", monotone),
        Claim.upper("gamma* inversion consistent", abs(gs_check - gamma_star), 1e-9),
    ]
    return res


@experiment("E2", "Figure 2: two-sample phase anatomy and the stable zone")
def run_e2_phase_anatomy(scale: str = "full", seed: int = 0) -> ExperimentResult:
    """Trace Algorithm-Ant phases around the stable zone.

    Checks the mechanics Figure 2 illustrates: the second sample sits a
    ``~c_s gamma`` fraction below the first, and once the phase-start
    load enters the stable zone ``[d(1+gamma), d(1+(0.9 c_s - 1) gamma)]``
    it stays there (no joins / no permanent leaves) for the rest of the
    run.
    """
    n = 8000 if scale != "quick" else 4000
    k = 1
    demand = uniform_demands(n=n, k=k)
    d = demand.min_demand
    gamma_star = 0.01
    gamma = 0.025
    lam = lambda_for_critical_value(demand, gamma_star=gamma_star)
    alg = AntAlgorithm(gamma=gamma)
    rounds = 3000 if scale != "quick" else 1200

    # Start above the stable zone so the trace shows the decay into it.
    start_loads = np.array([int(d * (1 + 12 * gamma))])
    sim = Simulator(
        alg,
        demand,
        SigmoidFeedback(lam),
        seed=seed,
        initial_assignment=assignment_from_loads(start_loads, n),
    )
    out = sim.run(rounds, trace_stride=1)
    loads = out.trace.loads[:, 0].astype(float)

    # Ratio of mid-phase (paused) load to phase-start load: odd rounds
    # (indices 0, 2, ...) carry the paused load; the phase-start load is
    # the preceding even round's post-decision load.
    phase_loads = loads[1::2]  # loads after decisions (even rounds)
    mid_loads = loads[2::2]  # paused loads of the *next* phase (odd rounds >= 3)
    m = min(phase_loads.size - 1, mid_loads.size)
    ratios = mid_loads[:m] / phase_loads[:m]
    expected_ratio = 1.0 - alg.pause_probability

    lo, hi = stable_zone(d, gamma)
    # The no-join / no-leave *resting band* implied by Claim 4.2's proof:
    # joins stop once the first sample reliably reads OVERLOAD
    # (W >= d(1+gamma*)) and leaves stop once the thinned second sample
    # reliably reads LACK (W(1-1.1 c_s gamma) <= d(1-gamma*)).  The
    # paper's stable zone [d(1+g), d(1+(0.9c_s-1)g)] sits inside it.
    rest_lo = d * (1.0 + gamma_star)
    rest_hi = d * (1.0 - gamma_star) / (1.0 - 1.1 * alg.constants.c_s * gamma)
    phase_start_loads = loads[1::2]
    inside = (phase_start_loads >= rest_lo - 0.5) & (phase_start_loads <= rest_hi + 0.5)
    entered = int(np.argmax(inside)) if inside.any() else -1
    residence = float(inside[entered:].mean()) if entered >= 0 else 0.0

    res = ExperimentResult("E2", run_e2_phase_anatomy.title, scale)
    res.series["phase_start_loads"] = phase_start_loads[: min(400, phase_start_loads.size)]
    res.series["sample_spacing_ratio"] = ratios[: min(400, ratios.size)]
    res.tables.append(
        line_plot(
            np.arange(min(300, phase_start_loads.size)),
            phase_start_loads[: min(300, phase_start_loads.size)],
            title=(
                f"Figure 2: phase-start load decaying into stable zone "
                f"[{lo:.0f}, {hi:.0f}] (d={d})"
            ),
            xlabel="phase",
            ylabel="load",
        )
    )
    res.notes.append(
        f"paper stable zone [{lo:.0f}, {hi:.0f}]; resting band [{rest_lo:.0f}, {rest_hi:.0f}]; "
        f"entered at phase {entered}; residence fraction afterwards {residence:.3f}"
    )
    res.claims += [
        Claim.upper(
            "second sample thinned by ~c_s*gamma (|mean ratio - (1-c_s g)|)",
            abs(float(ratios.mean()) - expected_ratio),
            0.01,
        ),
        Claim.shape("phase-start load enters the resting band", entered >= 0),
        Claim.lower("residence fraction in resting band after entry", residence, 0.95),
    ]
    res.data["stable_zone"] = (lo, hi)
    res.data["resting_band"] = (rest_lo, rest_hi)
    return res


def _spectrum_spec(family, skew, *, n, k, rounds, burn_in, seed, gamma_star):
    """A counting scenario on a skewed demand spectrum with per-task
    ``lambda`` calibrated to an equal *relative* grey zone.

    ``lambda_j * gamma* * d(j)`` is held constant across tasks (the
    scalar calibration solves it for ``d_min``), so every task — heavy
    head or light tail — has the same wrong-feedback probability at its
    own grey-zone boundary.  A scalar ``lambda`` would instead make
    heavy tasks' feedback nearly exact and light tasks' nearly random,
    confounding the skew axis with a noise axis.
    """
    from repro.scenario import ScenarioSpec

    if family == "powerlaw":
        skew_param, demand = "alpha", powerlaw_demands(n=n, k=k, alpha=skew)
    else:
        skew_param, demand = "sigma", lognormal_demands(n=n, k=k, sigma=skew)
    d = demand.as_array().astype(np.float64)
    lam_min = lambda_for_critical_value(demand, gamma_star=gamma_star)
    lam = [float(x) for x in lam_min * (d.min() / d)]
    return ScenarioSpec(
        algorithm={"name": "ant", "params": {"gamma": 0.025}},
        demand={"name": family, "params": {"n": n, "k": k, skew_param: skew}},
        feedback={"name": "sigmoid", "params": {"lam": lam}},
        engine={"name": "counting"},
        rounds=rounds,
        seed=seed,
        run_params={"burn_in": burn_in},
        gamma_star=gamma_star,
        label=f"{family}-skew-{skew}",
    ), f"demand.{skew_param}"


@experiment(
    "E16",
    "Regret vs demand-spectrum skew (powerlaw/lognormal, per-task lambda), "
    "rendered from stored sweep records",
)
def run_e16_spectrum_skew(scale: str = "full", seed: int = 0) -> ExperimentResult:
    """The figure the ROADMAP flagged as "nothing renders yet".

    For each spectrum family the skew parameter is swept through
    store-backed ``sweep_scenario`` calls: every point is committed to a
    :class:`~repro.store.ResultStore` (rooted at ``$REPRO_STORE`` when
    set, so re-invocations across sessions are free; a temp directory
    otherwise) and the whole figure is then *re-rendered* from the store
    — asserting that the second pass computes nothing and changes
    nothing.  Every trial reads the process's join-distribution store,
    so signatures that repeat across trials and points skip the kernel.
    """
    quick = scale == "quick"
    k = 32 if quick else 64
    n = 100 * k
    rounds = 600 if quick else 2000
    burn_in = rounds // 3
    trials = 2 if quick else 4
    gamma_star = 0.01
    skews = {
        "powerlaw": [0.0, 0.6, 1.2],
        "lognormal": [0.25, 0.75, 1.25],
    }

    from repro.scenario import sweep_scenario
    from repro.store import ResultStore

    def render(store):
        """One full figure pass; returns (closeness rows, resumed flags)."""
        rows: dict[str, list[float]] = {}
        regret_rows: dict[str, list[float]] = {}
        resumed: list[bool] = []
        for family, family_skews in skews.items():
            rows[family] = []
            regret_rows[family] = []
            for skew in family_skews:
                spec, parameter = _spectrum_spec(
                    family,
                    skew,
                    n=n,
                    k=k,
                    rounds=rounds,
                    burn_in=burn_in,
                    seed=seed,
                    gamma_star=gamma_star,
                )
                out = sweep_scenario(
                    spec,
                    parameter,
                    [skew],
                    trials=trials,
                    store=store,
                )
                rows[family].append(out.summaries[0].mean_closeness)
                regret_rows[family].append(out.summaries[0].mean_average_regret)
                resumed.extend(out.resumed or [])
        return rows, regret_rows, resumed

    env_root = os.environ.get("REPRO_STORE")
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(env_root if env_root else tmp)
        first, regrets, _ = render(store)
        second, _, second_resumed = render(store)

    res = ExperimentResult("E16", run_e16_spectrum_skew.title, scale)
    n_points = sum(len(v) for v in skews.values())
    max_delta = 0.0
    table_rows = []
    for family, family_skews in skews.items():
        res.series[f"{family}_skew"] = np.array(family_skews)
        res.series[f"{family}_closeness"] = np.array(first[family])
        res.series[f"{family}_average_regret"] = np.array(regrets[family])
        max_delta = max(
            max_delta,
            float(np.max(np.abs(np.array(first[family]) - np.array(second[family])))),
        )
        for skew, c, r in zip(family_skews, first[family], regrets[family]):
            table_rows.append([family, skew, r, c])
        res.tables.append(
            line_plot(
                np.array(family_skews),
                np.array(first[family]),
                title=f"E16: closeness vs {family} skew (k={k}, per-task lambda)",
                xlabel="skew",
                ylabel="closeness",
            )
        )
    res.tables.append(
        format_table(["spectrum", "skew", "R(t)/t", "closeness"], table_rows)
    )
    res.notes.append(
        f"store root: {'$REPRO_STORE=' + env_root if env_root else 'temp dir'}; "
        f"{n_points} points per pass, second pass served {sum(second_resumed)} "
        "from records"
    )

    res.claims += [
        Claim.shape(
            "every spectrum point rendered", len(second_resumed) == n_points
        ),
        # The figure's shape: a skewer spectrum (lighter tail tasks, whose
        # grey zones shrink below one ant) costs strictly more regret.
        Claim.shape(
            "closeness monotone in powerlaw skew",
            bool(np.all(np.diff(first["powerlaw"]) >= 0.0)),
        ),
        Claim.shape(
            "closeness monotone in lognormal skew",
            bool(np.all(np.diff(first["lognormal"]) >= 0.0)),
        ),
        Claim.shape(
            "re-render served entirely from stored records",
            len(second_resumed) == n_points and all(second_resumed),
        ),
        Claim.upper("re-render is bit-identical (max |delta closeness|)", max_delta, 0.0),
    ]
    return res
