"""Command-line entry point: ``python -m repro.experiments`` / ``repro-experiments``.

Usage::

    repro-experiments list
    repro-experiments run E3 [--scale quick|full] [--seed N]
    repro-experiments run all [--scale quick]
    repro-experiments scenario run <file.json> [--rounds N] [--trials T]
                                               [--parallel P] [--seed S]
    repro-experiments scenario sweep <file.json> --param algorithm.gamma
        --values 0.02,0.03 [--trials T] [--rounds N] [--parallel P]
        [--store DIR] [--max-points N] [--out results.json]
    repro-experiments scenario show <file.json>
    repro-experiments scenario components
    repro-experiments store ls <dir> [--json]
    repro-experiments store info <dir>
    repro-experiments store gc <dir> [--max-age SECONDS] [--grace SECONDS]
    repro-experiments sched run <file.json> --store DIR
        --axis algorithm.gamma=0.01,0.02 [--axis feedback.p_fail=0.05,0.1]
        [--trials T] [--rounds N] [--workers W] [--ttl S]
        [--init-only] [--json]
    repro-experiments sched work <dir> [--grid DIGEST] [--ttl S]
        [--max-points N] [--worker-id ID]
    repro-experiments sched status <dir> [--grid DIGEST] [--ttl S] [--json]
    repro-experiments serve <dir> [--workers N] [--port P] [--host H]
        [--ttl S] [--max-pending N]
    repro-experiments obs report <trace.jsonl> [--top N] [--json]
    repro-experiments lint <paths...> [--disable IDS] [--no-registry]
        [--json] [--list-rules]

``scenario run/sweep`` and ``sched run/work`` accept ``--trace FILE``:
spans and events (engine runs, join-kernel dispatches, cache stats,
scheduler claims, commits) are appended to the file as one canonical
JSON line each; ``obs report`` aggregates such a file into top spans,
kernel time per method, and cache hit ratios.  Tracing never changes
records or digests — it is byte-transparent to the store.

``scenario sweep --store DIR`` commits every completed point to the
store and serves already-committed points from disk (bit-identical to
recomputing them), so only the missing ones execute.
``--max-points N`` deterministically simulates an interrupted sweep: the
process stops with exit status 3 once N new points were computed — the
committed prefix stays resumable.  ``--out`` writes the aggregate series
as canonical JSON, byte-comparable across resumed and fresh runs.

``sched`` drives the distributed grid scheduler (:mod:`repro.sched`):
``sched run`` initialises a multi-axis grid in the store and drains it
with N local workers (live frontier counters on stderr); ``sched work``
attaches one worker to an existing grid — run it from several processes
or machines sharing the store directory and they cooperate via lease
files; ``sched status`` reports the frontier (``--json`` for the
canonical machine-readable form the CI smokes compare).

``serve`` starts the scenario service (:mod:`repro.serve`) over a
result store: ``POST /scenarios`` dedups requests by sweep-point
digest (committed records answer immediately, new work is enqueued
behind a worker pool), ``GET /results/<digest>`` polls/reads, and
``GET /status`` reports the queue and dedup counters.  Blocks until
interrupted.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Any, ContextManager

from repro.experiments.base import get_experiment, list_experiments
from repro.obs import monotonic as obs_monotonic

#: Exit status of a sweep stopped by ``--max-points`` (the interrupted-
#: sweep smoke asserts it; distinct from argparse's 2 and errors' 1).
SWEEP_INTERRUPTED_EXIT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's figures and theorem-level claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runp = sub.add_parser("run", help="run one experiment (or 'all')")
    runp.add_argument("experiment", help="experiment id, e.g. E3, or 'all'")
    runp.add_argument("--scale", choices=("quick", "full"), default="full")
    runp.add_argument("--seed", type=int, default=0)

    scen = sub.add_parser("scenario", help="declarative scenario specs (JSON)")
    ssub = scen.add_subparsers(dest="scenario_command", required=True)
    srun = ssub.add_parser("run", help="run a scenario spec from a JSON file")
    srun.add_argument("file", help="path to a ScenarioSpec JSON file")
    srun.add_argument("--rounds", type=int, default=None, help="override spec.rounds")
    srun.add_argument("--trials", type=int, default=1, help="independent trials")
    srun.add_argument("--parallel", type=int, default=0, help="worker processes")
    srun.add_argument("--seed", type=int, default=None, help="override spec.seed")
    srun.add_argument(
        "--trace", default=None, metavar="FILE", help="append obs trace spans to this JSONL file"
    )
    ssweep = ssub.add_parser(
        "sweep", help="sweep one spec parameter (store-backed and resumable)"
    )
    ssweep.add_argument("file", help="path to a ScenarioSpec JSON file")
    ssweep.add_argument(
        "--param", required=True, help="dotted component param, e.g. algorithm.gamma"
    )
    ssweep.add_argument(
        "--values",
        required=True,
        help="comma-separated values (each parsed as JSON, else kept as string)",
    )
    ssweep.add_argument("--trials", type=int, default=5, help="trials per point")
    ssweep.add_argument("--rounds", type=int, default=None, help="override spec.rounds")
    ssweep.add_argument("--parallel", type=int, default=0, help="worker processes")
    ssweep.add_argument(
        "--store",
        default=None,
        help="result-store root; completed points are committed here and served from it",
    )
    ssweep.add_argument(
        "--max-points",
        type=int,
        default=None,
        help=f"stop with exit status {SWEEP_INTERRUPTED_EXIT} after computing N new points",
    )
    ssweep.add_argument(
        "--out", default=None, help="write the aggregate series as canonical JSON"
    )
    ssweep.add_argument(
        "--trace", default=None, metavar="FILE", help="append obs trace spans to this JSONL file"
    )
    sshow = ssub.add_parser("show", help="validate a spec file and print it normalized")
    sshow.add_argument("file", help="path to a ScenarioSpec JSON file")
    ssub.add_parser("components", help="list registered component names")

    storep = sub.add_parser("store", help="inspect / maintain a result store")
    stsub = storep.add_subparsers(dest="store_command", required=True)
    sls = stsub.add_parser("ls", help="list committed records")
    sls.add_argument("root", help="store root directory")
    sls.add_argument(
        "--json",
        action="store_true",
        help="canonical JSON (byte-stable ordering, no timestamps)",
    )
    sinfo = stsub.add_parser("info", help="record/cache counts and sizes")
    sinfo.add_argument("root", help="store root directory")
    sgc = stsub.add_parser("gc", help="sweep temp files, orphans, broken records")
    sgc.add_argument("root", help="store root directory")
    sgc.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also break lease files older than this",
    )
    sgc.add_argument(
        "--grace",
        type=float,
        default=None,
        metavar="SECONDS",
        help="age below which temp files / orphan payloads are presumed in-flight "
        "(default 3600; pass 0 when no writer can be alive)",
    )

    schedp = sub.add_parser("sched", help="distributed grid scheduler (repro.sched)")
    scsub = schedp.add_subparsers(dest="sched_command", required=True)
    screate = scsub.add_parser("run", help="initialise a grid and drain it with N workers")
    screate.add_argument("file", help="path to the base ScenarioSpec JSON file")
    screate.add_argument("--store", required=True, help="result-store root for the grid")
    screate.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="PARAM=V1,V2,...",
        help="one grid axis (repeatable); values parse like scenario sweep --values",
    )
    screate.add_argument("--trials", type=int, default=5, help="trials per grid point")
    screate.add_argument("--rounds", type=int, default=None, help="override spec.rounds")
    screate.add_argument(
        "--workers", type=int, default=0, help="local worker processes (0 = in-process)"
    )
    screate.add_argument("--ttl", type=float, default=60.0, help="lease TTL seconds")
    screate.add_argument(
        "--init-only",
        action="store_true",
        help="persist the grid manifest and exit without running any point",
    )
    screate.add_argument("--json", action="store_true", help="final status as canonical JSON")
    screate.add_argument(
        "--trace", default=None, metavar="FILE", help="append obs trace spans to this JSONL file"
    )
    swork = scsub.add_parser("work", help="attach one worker to an existing grid")
    swork.add_argument("root", help="store root directory holding the grid")
    swork.add_argument("--grid", default=None, help="grid digest (optional if unambiguous)")
    swork.add_argument("--ttl", type=float, default=60.0, help="lease TTL seconds")
    swork.add_argument(
        "--max-points", type=int, default=None, help="exit after computing N points"
    )
    swork.add_argument("--worker-id", default=None, help="label recorded in lease files")
    swork.add_argument(
        "--trace", default=None, metavar="FILE", help="append obs trace spans to this JSONL file"
    )
    sstatus = scsub.add_parser("status", help="frontier counters of a grid")
    sstatus.add_argument("root", help="store root directory holding the grid")
    sstatus.add_argument("--grid", default=None, help="grid digest (optional if unambiguous)")
    sstatus.add_argument("--ttl", type=float, default=60.0, help="lease freshness TTL")
    sstatus.add_argument("--json", action="store_true", help="canonical JSON output")
    servep = sub.add_parser("serve", help="scenario service over a result store (repro.serve)")
    servep.add_argument("root", help="result-store root directory to serve and write")
    servep.add_argument("--host", default="127.0.0.1", help="bind address")
    servep.add_argument("--port", type=int, default=8787, help="bind port (0 = ephemeral)")
    servep.add_argument("--workers", type=int, default=2, help="computation worker threads")
    servep.add_argument("--ttl", type=float, default=60.0, help="lease TTL seconds")
    servep.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help="queue depth before POSTs answer 503 (back pressure)",
    )
    obsp = sub.add_parser("obs", help="observability tooling (repro.obs)")
    obssub = obsp.add_subparsers(dest="obs_command", required=True)
    oreport = obssub.add_parser("report", help="summarize a trace JSONL file")
    oreport.add_argument("trace", help="trace file written via --trace / repro.obs.trace_to")
    oreport.add_argument("--top", type=int, default=10, help="span rows to show (by total time)")
    oreport.add_argument(
        "--json", action="store_true", help="canonical JSON payload (byte-stable)"
    )

    lintp = sub.add_parser(
        "lint",
        help="run the determinism & store-protocol linter (same as python -m repro.lint)",
    )
    lintp.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to repro.lint (paths, --disable, --json, --list-rules ...)",
    )
    # argparse.REMAINDER does not swallow a *leading* option (e.g.
    # ``lint --list-rules``), so main() short-circuits the dispatch for
    # ``lint`` before parsing; the subparser exists for --help listings.
    return parser


def _maybe_trace(path: str | None) -> ContextManager[Any]:
    """A tracing scope for ``--trace FILE``; a no-op scope without it.

    Tracing is strictly additive: the simulation's records and digests
    are byte-identical with or without it (the byte-identity suite in
    ``tests/obs`` proves this), so the flag is always safe to pass.
    """
    if not path:
        return nullcontext()
    from repro.obs import trace_to

    return trace_to(path)


def _load_spec(path: str):
    from repro.scenario import ScenarioSpec

    return ScenarioSpec.from_json(Path(path).read_text(encoding="utf-8"))


def _parse_values(text: str) -> list[Any]:
    """Sweep values from the command line.

    A string that parses as one JSON array is taken verbatim (the only
    way to sweep list-valued params: ``--values '[[1,2],[3,4]]'``);
    otherwise it is split on commas with each item parsed as JSON when
    possible and kept as a string when not (``--values 0.02,0.04`` /
    ``--values powerlaw,lognormal``).
    """
    try:
        parsed = json.loads(text)
        if isinstance(parsed, list):
            return parsed
    except ValueError:
        pass
    values: list[Any] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            values.append(json.loads(item))
        except ValueError:
            values.append(item)
    return values


def _sweep_out_payload(result) -> dict[str, Any]:
    """The ``--out`` JSON: everything deterministic, nothing incidental.

    Per-trial arrays and aggregate series round-trip exactly through
    Python float repr, so a resumed run and an uninterrupted run of the
    same sweep produce byte-identical files — which is precisely what
    the interrupted-sweep CI smoke diffs.  Resume markers and timings
    are deliberately excluded (they legitimately differ between runs).
    """
    points = []
    for value, s in zip(result.values, result.summaries):
        points.append(
            {
                "value": value,
                "label": s.label,
                "trials": s.trials,
                "rounds": s.rounds,
                "average_regrets": [float(x) for x in s.average_regrets],
                "closenesses": (
                    None if s.closenesses is None else [float(x) for x in s.closenesses]
                ),
                "max_abs_deficits": [float(x) for x in s.max_abs_deficits],
                "switches_per_round": [float(x) for x in s.switches_per_round],
            }
        )
    return {
        "parameter": result.parameter,
        "values": result.values,
        "points": points,
        "series": {
            "mean_average_regret": [s.mean_average_regret for s in result.summaries],
            "mean_max_abs_deficit": [s.mean_max_abs_deficit for s in result.summaries],
            "mean_switches_per_round": [
                s.mean_switches_per_round for s in result.summaries
            ],
        },
    }


def _scenario_sweep_main(args: argparse.Namespace) -> int:
    from repro.exceptions import SweepInterrupted
    from repro.scenario import sweep_scenario

    spec = _load_spec(args.file)
    values = _parse_values(args.values)
    t0 = obs_monotonic()
    try:
        with _maybe_trace(args.trace):
            result = sweep_scenario(
                spec,
                args.param,
                values,
                rounds=args.rounds,
                trials=args.trials,
                parallel=args.parallel,
                store=args.store,
                max_new_points=args.max_points,
            )
    except SweepInterrupted as exc:
        print(f"interrupted: {exc}")
        return SWEEP_INTERRUPTED_EXIT
    dt = obs_monotonic() - t0

    for i, summary in enumerate(result.summaries):
        origin = ""
        if result.resumed is not None:
            origin = "[cached] " if result.resumed[i] else "[ran]    "
        print(f"{origin}{summary.describe()}")
    print(result.table())
    if result.resumed is not None:
        print(
            f"({sum(result.resumed)} of {len(result.resumed)} points served "
            f"from {args.store})"
        )
    if args.out:
        payload = json.dumps(_sweep_out_payload(result), indent=2, sort_keys=True)
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    print(f"(sweep took {dt:.1f}s)")
    return 0


def _ls_json_payload(store) -> dict[str, Any]:
    """The ``store ls --json`` payload: canonical and byte-stable.

    Records sort by digest and manifests carry no wall-clock fields
    (lint-enforced, RPR002), so two stores holding the same records —
    e.g. the interrupted and uninterrupted stores of the chaos smoke —
    serialize to identical bytes with no field stripping at all.
    """
    records = [
        {"digest": digest, "meta": meta}
        for digest, meta in store.iter_records()  # iter_records sorts by path
    ]
    records.sort(key=lambda r: r["digest"])
    return {"count": len(records), "records": records}


def _store_main(args: argparse.Namespace) -> int:
    from repro.store import ResultStore, canonical_json

    store = ResultStore(args.root)
    if args.store_command == "ls":
        if args.json:
            print(canonical_json(_ls_json_payload(store)))
            return 0
        count = 0
        for digest, meta in store.iter_records():
            label = meta.get("label", "?")
            coord = f"{meta.get('parameter', '?')}={meta.get('value', '?')}"
            print(
                f"{digest[:12]}  {label:<24} {coord:<28} "
                f"trials={meta.get('trials', '?')} rounds={meta.get('rounds', '?')}"
            )
            count += 1
        print(f"{count} record(s) in {store.root}")
        return 0
    if args.store_command == "info":
        print(json.dumps(store.info(), indent=2, sort_keys=True))
        return 0
    removed = store.gc(grace_seconds=args.grace, max_age_seconds=args.max_age)
    total = sum(removed.values())
    details = ", ".join(f"{k}={v}" for k, v in sorted(removed.items()))
    print(f"gc removed {total} file(s) ({details}) from {store.root}")
    return 0


def _parse_axes(axis_args: list[str]) -> list[dict[str, Any]]:
    """``--axis PARAM=V1,V2`` arguments as GridAxis dicts."""
    axes = []
    for text in axis_args:
        parameter, sep, values = text.partition("=")
        if not sep or not parameter:
            raise SystemExit(f"--axis must look like PARAM=V1,V2,... (got {text!r})")
        axes.append({"parameter": parameter, "values": _parse_values(values)})
    return axes


def _sched_main(args: argparse.Namespace) -> int:
    from repro.sched import (
        GridSpec,
        format_status,
        grid_status,
        init_grid,
        load_grid,
        run_grid,
        run_worker,
    )
    from repro.store import ResultStore, canonical_json

    if args.sched_command == "run":
        spec = _load_spec(args.file)
        grid = GridSpec(
            spec=spec,
            axes=_parse_axes(args.axis),
            rounds=args.rounds,
            trials=args.trials,
        )
        store = ResultStore(args.store)
        grid_dir = init_grid(store, grid)
        print(
            f"grid {grid.grid_digest()[:12]}: {grid.n_points} point(s) over "
            f"{' x '.join(a.parameter for a in grid.axes)} -> {grid_dir}",
            file=sys.stderr,
        )
        if args.init_only:
            if args.json:
                print(canonical_json(grid_status(store, grid, ttl=args.ttl)))
            return 0
        t0 = obs_monotonic()
        last = [""]

        def progress(status: dict[str, Any]) -> None:
            line = format_status(status)
            if line != last[0]:  # frontier counters, only when they move
                print(line, file=sys.stderr)
                last[0] = line

        with _maybe_trace(args.trace):
            status = run_grid(
                store,
                grid,
                workers=args.workers,
                ttl=args.ttl,
                progress=progress,
            )
        dt = obs_monotonic() - t0
        print(f"(grid drained in {dt:.1f}s with {args.workers} worker(s))", file=sys.stderr)
        if args.json:
            print(canonical_json(status))
        return 0

    store = ResultStore(args.root)
    grid = load_grid(store, args.grid)
    if args.sched_command == "work":
        with _maybe_trace(args.trace):
            stats = run_worker(
                store,
                grid,
                ttl=args.ttl,
                max_points=args.max_points,
                worker_id=args.worker_id,
            )
        print(
            f"worker done: computed={stats.computed} "
            f"lease_denied={stats.lease_denied} lost_leases={stats.lost_leases}"
        )
        return 0
    # status
    status = grid_status(store, grid, ttl=args.ttl)
    if args.json:
        print(canonical_json(status))
    else:
        print(f"grid {status['grid'][:12]}: {format_status(status)}")
    return 0


def _obs_main(args: argparse.Namespace) -> int:
    from repro.obs.report import render_json, render_text, trace_report

    payload = trace_report(args.trace, top=args.top)
    if args.json:
        print(render_json(payload))
    else:
        print(render_text(payload))
    return 0


def _serve_main(args: argparse.Namespace) -> int:
    from repro.serve import ScenarioService, run_server
    from repro.serve.service import DEFAULT_MAX_PENDING
    from repro.store import ResultStore

    max_pending = DEFAULT_MAX_PENDING if args.max_pending is None else args.max_pending
    service = ScenarioService(
        ResultStore(args.root),
        workers=args.workers,
        ttl=args.ttl,
        max_pending=max_pending,
    )
    run_server(service, host=args.host, port=args.port)
    return 0


def _scenario_main(args: argparse.Namespace) -> int:
    from repro.core.registry import available_algorithms
    from repro.env.registry import (
        available_demands,
        available_feedbacks,
        available_populations,
    )
    from repro.scenario import available_engines, run_scenario
    from repro.sim.runner import TrialSummary

    if args.scenario_command == "components":
        for kind, names in (
            ("algorithms", available_algorithms()),
            ("feedbacks", available_feedbacks()),
            ("demands", available_demands()),
            ("populations", available_populations()),
            ("engines", available_engines()),
        ):
            print(f"{kind:>12}: {', '.join(names)}")
        return 0

    if args.scenario_command == "sweep":
        return _scenario_sweep_main(args)

    spec = _load_spec(args.file)
    if args.scenario_command == "show":
        print(spec.to_json())
        return 0

    t0 = obs_monotonic()
    with _maybe_trace(args.trace):
        out = run_scenario(
            spec,
            rounds=args.rounds,
            trials=args.trials,
            parallel=args.parallel,
            seed=args.seed,
        )
    dt = obs_monotonic() - t0
    if isinstance(out, TrialSummary):
        print(out.describe())
    else:
        m = out.metrics
        line = (
            f"{spec.describe()}: R(t)/t = {m.average_regret:.2f}"
            f"  max|deficit| = {m.max_abs_deficit:.1f}"
            f"  switches/round = {m.switches_per_round:.2f}"
        )
        if spec.gamma_star is not None:
            closeness = m.closeness(spec.gamma_star, spec.initial_demand().total)
            line += f"  closeness = {closeness:.3f}"
        print(line)
        print(f"final loads = {m.final_loads.astype(int)}")
    print(f"(scenario took {dt:.1f}s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "scenario":
        return _scenario_main(args)
    if args.command == "store":
        return _store_main(args)
    if args.command == "sched":
        return _sched_main(args)
    if args.command == "serve":
        return _serve_main(args)
    if args.command == "obs":
        return _obs_main(args)
    if args.command == "list":
        for eid, title in list_experiments():
            print(f"{eid:>4}  {title}")
        return 0

    ids = (
        [eid for eid, _ in list_experiments()]
        if args.experiment.lower() == "all"
        else [args.experiment]
    )
    overall_ok = True
    for eid in ids:
        fn = get_experiment(eid)
        t0 = obs_monotonic()
        result = fn(scale=args.scale, seed=args.seed)
        dt = obs_monotonic() - t0
        print(result.report())
        # Timing goes to stderr: a re-run over the same store prints the same bytes.
        print(f"({eid} took {dt:.1f}s)", file=sys.stderr)
        print()
        overall_ok &= result.all_ok
    return 0 if overall_ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
