"""The repository's benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it needs ``src/repro`` there and
exits with code 2 otherwise.  Workloads (see ``workloads.py`` for why
each was chosen): ``sweep_k8``, ``grid_k1024_w2``, ``serve_mixed``.

``--trace 0`` measures the end-to-end metrics untraced.  Set-up time is
the median over several fresh launches: three set-up-only launches
plus the measured one.  ``--trace 1`` runs the workload for half of
``--seconds`` untraced and for the other half with the layer wrappers of
``ledger.py``, and reports the per-layer ledger; ``trace_overhead`` is
the traced run's cost per unit of work over the untraced run's.

The machine the benchmark was sized on (a shared 2-vCPU virtual machine)
switches between two speeds, one about 1.5 times slower than the other,
in spells of 5 to 20 seconds.  A plain median over a run jumps from one
speed to the other as the run's share of slow spells crosses one half,
so the ``_p50`` metrics average the medians of consecutive time windows
instead (:func:`windowed_median`), and ``hot_tail_ms`` takes a
percentile, fixed per workload, that stays inside one mode of the
latencies (:data:`HOT_TAIL`).

Seeds: 1 is the default seed and 2 the second seed on which later claims
must also hold.  The seed picks the swept gamma/alpha values, the hot and
cold points, the hot request order and the spec seeds.

Human-readable lines (environment, output checks, metrics with unit and
sample count, the layer table) come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep_k8", "grid_k1024_w2", "serve_mixed")
DEFAULT_SEED = 1
#: Fresh set-up-only launches per run, besides the measured launch.
SETUP_PROBES = 3
#: Time-ordered windows the ``_p50`` metrics are taken over.
WINDOWS = 6
#: Percentile of ``hot_tail_ms`` per workload, each with at least ten
#: samples beyond it in a run (about 95 hot ops on ``sweep_k8``, 170 on
#: ``grid_k1024_w2``, 11000 on ``serve_mixed``) and inside one mode of
#: the latencies: the first of the grid's 8 reads after each drain is
#: slower, so a percentile above 87.5 would sit on the edge of those
#: reads; on ``serve_mixed`` 1.5-3% of hot requests wait behind a cold
#: compute, and p99.5 falls inside that wait.
HOT_TAIL = {"sweep_k8": 90.0, "grid_k1024_w2": 75.0, "serve_mixed": 99.5}
#: Longest a workload child may run past its ``--seconds``.
CHILD_GRACE_S = 90.0

#: A run's outcome: (outputs correct, raw child result, name -> (value, unit)).
Outcome = tuple[bool, dict[str, Any], dict[str, tuple[float, str]]]

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "trial_rounds_per_s": "1/s",
    "hot_p50_ms": "ms",
    "hot_tail_ms": "ms",
    "cold_p50_s": "s",
    "cold_p75_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def fingerprint(root: Path, work: Path) -> dict[str, Any]:
    """The machine and code a result was measured on."""
    import numpy
    import scipy

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
        commit = head.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode("utf-8") + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "store_fs": filesystem_type(work),
    }


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    best, fstype = "", "unknown"
    mounts = Path("/proc/mounts")
    if not mounts.is_file():
        return fstype
    resolved = str(path.resolve())
    for line in mounts.read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1]
        inside = resolved == point or resolved.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, fstype = point, fields[2]
    return fstype


def cpu_times() -> list[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat`` (empty if absent)."""
    stat = Path("/proc/stat")
    if not stat.is_file():
        return []
    return [int(x) for x in stat.read_text(encoding="utf-8").split("\n", 1)[0].split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor took between two readings.

    On a shared virtual machine this is the main source of run-to-run
    spread, so every run prints it beside its metrics.
    """
    if len(before) < 8 or len(after) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else 0.0


def quantile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (in steps of 0.1), interpolated within the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(10 * q) - 1]


def windowed_median(values: list[float]) -> float:
    """Mean over :data:`WINDOWS` consecutive slices (in time order) of
    each slice's median: it moves in proportion to a run's share of slow
    spells, where a plain median jumps between the machine's two speeds."""
    if len(values) < 2 * WINDOWS:
        return statistics.median(values)
    edges = [round(i * len(values) / WINDOWS) for i in range(WINDOWS + 1)]
    return statistics.fmean(statistics.median(values[lo:hi]) for lo, hi in zip(edges, edges[1:]))


def run_child(
    workload: str, seed: int, seconds: float, work: Path, *, trace_dir: Path | None = None
) -> tuple[dict[str, Any], float]:
    """One measured workload child; ``(raw result, set-up seconds)``."""
    import procs

    argv = [
        sys.executable, str(HERE / "workloads.py"), workload,
        "--seed", str(seed), "--seconds", str(seconds), "--work", str(work),
    ]
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir)]
    work.mkdir(parents=True)
    proc, setup_s = procs.time_to_ready(argv, Path.cwd(), work)
    try:
        assert proc.stdout is not None
        out, _ = proc.communicate(timeout=seconds + CHILD_GRACE_S)
    finally:
        procs.stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{workload} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setup_s


def setup_probes(workload: str, seed: int, work: Path) -> list[float]:
    """Set-up seconds of :data:`SETUP_PROBES` fresh launches."""
    import procs

    samples = []
    for i in range(SETUP_PROBES):
        probe = work / f"probe-{i}"
        probe.mkdir(parents=True)
        if workload == "serve_mixed":
            proc, _, setup_s = procs.launch_server(Path.cwd(), probe, probe / "store")
        else:
            argv = [
                sys.executable, str(HERE / "workloads.py"), workload, "--seed", str(seed),
                "--seconds", "0", "--work", str(probe), "--setup-only",
            ]
            proc, setup_s = procs.time_to_ready(argv, Path.cwd(), probe)
        procs.stop(proc)
        samples.append(setup_s)
    return samples


def end_to_end(
    workload: str, raw: dict[str, Any], setup: list[float]
) -> dict[str, tuple[float, int]]:
    """Every end-to-end metric as ``(value, sample count)``."""
    hot, cold = raw["hot_s"], raw["cold_s"]
    ops = len(hot) + len(cold)
    if workload == "serve_mixed":
        requests_per_s = (raw["attempted"] - raw["failed"]) / raw["wall_s"]
        # The server's own compute time (its run_trials histogram), not
        # the client's time-to-result: queueing, polls and HTTP excluded.
        computes = raw["compute"]["count"]
        trial_rounds = (computes * raw["op_trial_rounds"] / raw["compute"]["seconds"], computes)
    else:
        requests_per_s = (ops - raw["failed"]) / (sum(hot) + sum(cold))
        trial_rounds = (raw["op_trial_rounds"] * len(cold) / sum(cold), len(cold))
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "trial_rounds_per_s": trial_rounds,
        "hot_p50_ms": (1e3 * windowed_median(hot), len(hot)),
        "hot_tail_ms": (1e3 * quantile(hot, HOT_TAIL[workload]), len(hot)),
        "cold_p50_s": (windowed_median(cold), len(cold)),
        "cold_p75_s": (quantile(cold, 75), len(cold)),
        "requests_per_s": (requests_per_s, ops),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
    }


def cost(workload: str, raw: dict[str, Any]) -> float:
    """Seconds per unit of work: per trial round, or per served request."""
    if workload == "serve_mixed":
        return raw["wall_s"] / max(1, raw["attempted"] - raw["failed"])
    return sum(raw["cold_s"]) / (raw["op_trial_rounds"] * len(raw["cold_s"]))


def print_checks(raw: dict[str, Any]) -> bool:
    ok = True
    for name, passed in sorted(raw["checks"].items()):
        print(f"check  {'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    print(f"results/ sha256 {raw['results_sha256']}  ({raw['units']} unit(s), all identical)")
    print(f"inputs {json.dumps(raw['inputs'], sort_keys=True)}")
    client = raw.get("client", {})
    for error in client.get("errors", []):
        print(f"client error: {error}")
    if client:
        print(f"cold polls answered 404 and re-POSTed: {client['reposts_after_404']}")
    return ok


def measure(args: argparse.Namespace, work: Path) -> Outcome:
    """The untraced run: end-to-end metrics."""
    setup = setup_probes(args.workload, args.seed, work / "probes")
    before = cpu_times()
    raw, setup_s = run_child(args.workload, args.seed, args.seconds, work / "run")
    print(f"cpu steal during the run: {100 * steal_share(before, cpu_times()):.1f}%")
    setup.append(raw["setup_s"] if args.workload == "serve_mixed" else setup_s)
    correct = print_checks(raw)
    metrics = end_to_end(args.workload, raw, setup)
    print(f"{'metric':<20} {'value':>14}  {'unit':<6} samples")
    for name, (value, samples) in metrics.items():
        print(f"{name:<20} {value:>14.6g}  {END_TO_END[name]:<6} {samples}")
    print(f"hot_tail_ms is p{HOT_TAIL[args.workload]:g}; plain medians: "
          f"hot {1e3 * statistics.median(raw['hot_s']):.6g} ms, "
          f"cold {statistics.median(raw['cold_s']):.6g} s")
    print(f"failed_share {raw['failed'] / max(1, raw['attempted']):.6g} "
          f"({raw['failed']} of {raw['attempted']})")
    return correct, raw, {name: (value, END_TO_END[name]) for name, (value, _) in metrics.items()}


def trace(args: argparse.Namespace, work: Path) -> Outcome:
    """The traced run: the per-layer ledger."""
    import ledger

    half = args.seconds / 2
    bare, _ = run_child(args.workload, args.seed, half, work / "bare")
    trace_dir = work / "trace"
    trace_dir.mkdir(parents=True)
    before = cpu_times()
    raw, _ = run_child(args.workload, args.seed, half, work / "traced", trace_dir=trace_dir)
    print(f"cpu steal during the traced run: {100 * steal_share(before, cpu_times()):.1f}%")
    correct = print_checks(raw)
    merged = ledger.merge(trace_dir, raw.get("client"))
    values = merged["metrics"]
    traced_cost, bare_cost = cost(args.workload, raw), cost(args.workload, bare)
    values["trace_overhead"] = traced_cost / bare_cost
    print(f"cost per unit of work: traced {traced_cost:.6g} s, untraced {bare_cost:.6g} s")
    total = sum(values[f"{layer.name}.self_s"] for layer in ledger.LAYERS) or 1.0
    print(f"{'layer':<16} {'calls':>9} {'self_s':>10} {'share':>6}  should move")
    for layer in sorted(ledger.LAYERS, key=lambda lay: -values[f"{lay.name}.self_s"]):
        self_s = values[f"{layer.name}.self_s"]
        state = "absent" if layer.name in merged["absent"] else f"{100 * self_s / total:5.1f}%"
        print(f"{layer.name:<16} {values[f'{layer.name}.calls']:>9.0f} {self_s:>10.4f} "
              f"{state:>6}  {layer.moves}")
    for name in ledger.EXTRAS:
        print(f"{name:<30} {values[name]:.6g}")
    for row in merged["threads"]:
        if row["unclosed"]:
            print(f"unclosed spans: pid {row['pid']} {row['role']} thread {row['name']}: "
                  f"{row['unclosed']}")
    for what, wrapped, kept in merged["checks"]:
        if wrapped or kept:
            print(f"check  {'PASS' if wrapped == kept else 'FAIL'}  {what} ({wrapped} vs {kept:g})")
    print(f"ledger: {merged['processes']} process file(s), {len(merged['threads'])} thread(s), "
          f"{'consistent' if merged['consistent'] else 'NOT consistent'}; layers seen in "
          f"child processes: {', '.join(merged['child_layers']) or 'none'}")
    metrics = {name: (values[name], unit) for name, unit, _ in ledger.per_layer_metrics()}
    return correct and merged["consistent"], raw, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Children are stopped with SIGINT; a shell that started us in the
    # background may have left it ignored, and that would be inherited.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # On SIGTERM, unwind through the finally blocks that stop children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("perfbench: src/repro not found; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work_root = root / ".perfbench-work"
    work = work_root / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print(f"env {json.dumps(fingerprint(root, work), sort_keys=True)}")
        step = trace if args.trace else measure
        correct, raw, metrics = step(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()
    correct = correct and raw["failed"] == 0
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
