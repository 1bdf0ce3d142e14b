"""Self-time ledger: spans around each layer's public calls, from outside.

The traced runs of the benchmark install wrappers from this file around
the public functions of every layer in :data:`LAYERS`, at the names
callers actually look up: a function is replaced in every loaded
``repro`` module that binds it (``repro.sim.counting.exact_join_probabilities``,
``repro.serve.service.run_trials``, ...), a method on its class.  No
``src/`` file changes, so records and digests stay byte-identical.

Spans live in memory, one set of ``array`` columns per thread (layer,
start, end, parent), and each process writes its spans once, as
``<trace dir>/<pid>.json``, together with the change in its
``repro.obs`` counters:

* the benchmark process writes when its workload ends;
* a forked grid worker writes when its ``run_worker`` call returns
  (the ledger re-arms itself after ``fork``, so a child never reports
  its parent's spans);
* the traced server writes on SIGINT (``serve_traced.py``).

:func:`merge` reads every per-pid file and computes per-layer call
counts and self-times.  A span's self-time is its duration minus the
part of its interval that its child spans cover.  Spans nest by
construction (one open-span stack per thread), so self-times always add
up to the root time; that sum proves nothing and is not checked.  What
is checked: every span was closed, and the wrapped call counts equal
the counters the program keeps itself (:data:`CROSS_CHECKS`), which a
wrapper that missed a binding would break.  A wrapper whose target no
longer exists marks its layer absent instead of failing the run.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.obs import get_registry, monotonic

#: Pseudo-layer of the benchmark's own root spans (one per timed call).
ROOT = "root"
#: Pseudo-layer of idle sleeps: time a layer waited, not time it worked.
WAIT = "wait"
#: Modules whose ``time.sleep`` calls are recorded as waits of the
#: calling layer (a worker waiting on leases, run_grid's status poll).
WAIT_MODULES = ("repro.sched.worker", "repro.sched.scheduler")


@dataclass(frozen=True)
class Layer:
    """One layer: the calls wrapped and what the layer should move."""

    name: str
    targets: tuple[str, ...]
    moves: str


#: ``module:Qualified.name`` targets.  ``Class/method`` wraps the method
#: on the class and on every subclass that defines its own.
LAYERS: tuple[Layer, ...] = (
    Layer(
        "scenario",
        (
            "repro.scenario.spec:ScenarioSpec.build",
            "repro.scenario.spec:ScenarioSpec.with_param",
            "repro.scenario.runner:sweep_point_digest",
            "repro.scenario.runner:sweep_point_seed",
            "repro.scenario.runner:sweep_scenario",
        ),
        "setup_s, trial_rounds_per_s (sweep_k8)",
    ),
    Layer(
        "sim.runner",
        ("repro.sim.runner:run_trials",),
        "trial_rounds_per_s (sweep_k8), cold_p50_s (serve_mixed)",
    ),
    Layer(
        "sim.engine",
        (
            "repro.sim.counting:CountingSimulator.run",
            "repro.sim.batched:BatchedCountingSimulator.run",
        ),
        "trial_rounds_per_s (sweep_k8), cold_p50_s (serve_mixed)",
    ),
    Layer(
        "sim.metrics",
        (
            "repro.sim.metrics:RegretTracker.observe",
            "repro.sim.batched:BatchedRegretTracker.observe",
        ),
        "trial_rounds_per_s (sweep_k8), cold_p50_s (serve_mixed)",
    ),
    Layer(
        "env.feedback",
        ("repro.env.feedback:FeedbackModel/lack_probabilities",),
        "trial_rounds_per_s (sweep_k8), cold_p50_s (serve_mixed)",
    ),
    Layer(
        "util.rng_block",
        ("repro.util.rng_block:BinomialBlockSampler.draw",),
        "trial_rounds_per_s (sweep_k8) once batching is the default",
    ),
    Layer(
        "sim.pi_cache",
        (
            "repro.sim.counting:JoinDistributionCache.distribution",
            "repro.sim.pi_cache:SharedPiCache.fetch",
            "repro.sim.pi_cache:SharedPiCache.put",
        ),
        "trial_rounds_per_s (sweep_k8, grid_k1024_w2)",
    ),
    Layer(
        "util.mathx",
        ("repro.util.mathx:exact_join_probabilities",),
        "trial_rounds_per_s (grid_k1024_w2)",
    ),
    Layer(
        "store.pi_disk",
        ("repro.store.pi_disk:DiskPiCache.get", "repro.store.pi_disk:DiskPiCache.put"),
        "trial_rounds_per_s (grid_k1024_w2)",
    ),
    Layer(
        "store.records",
        (
            "repro.store.store:ResultStore.has_record",
            "repro.store.store:ResultStore.read_record",
            "repro.store.store:ResultStore.write_record",
        ),
        "hot_p50_ms, requests_per_s (serve_mixed)",
    ),
    Layer(
        "sched.leases",
        ("repro.sched.leases:LeaseManager.try_claim", "repro.sched.leases:Lease.release"),
        "trial_rounds_per_s (grid_k1024_w2), cold_p50_s (serve_mixed)",
    ),
    Layer(
        "sched.worker",
        ("repro.sched.worker:run_worker",),
        "trial_rounds_per_s (grid_k1024_w2)",
    ),
    Layer(
        "sched.scheduler",
        ("repro.sched.scheduler:run_grid", "repro.sched.scheduler:grid_status"),
        "trial_rounds_per_s (grid_k1024_w2)",
    ),
    Layer(
        "serve.request",
        (
            "repro.serve.request:ScenarioRequest.from_dict",
            "repro.serve.request:ScenarioRequest.digest",
        ),
        "hot_p50_ms, requests_per_s (serve_mixed)",
    ),
    Layer(
        "serve.service",
        (
            "repro.serve.service:ScenarioService.submit",
            "repro.serve.service:ScenarioService.state_of",
        ),
        "cold_p50_s, cold_p75_s (serve_mixed)",
    ),
    Layer(
        "serve.http",
        ("repro.serve.http:record_body",),
        "hot_p50_ms, hot_tail_ms (serve_mixed)",
    ),
)

#: Extra per-layer and run-level metrics: name -> (unit, better, moves).
EXTRAS: dict[str, tuple[str, str, str]] = {
    "util.rng_block.fallback_ratio": ("ratio", "lower", "trial_rounds_per_s (sweep_k8)"),
    "sim.pi_cache.hit_ratio": ("ratio", "higher", "trial_rounds_per_s (sweep_k8)"),
    "store.pi_disk.writes": ("count", "lower", "trial_rounds_per_s (grid_k1024_w2)"),
    "store.pi_disk.hit_ratio": ("ratio", "higher", "trial_rounds_per_s (grid_k1024_w2)"),
    "sched.leases.denied_ratio": ("ratio", "lower", "trial_rounds_per_s (grid_k1024_w2)"),
    "sched.scheduler.drain_lag_s": ("s", "lower", "trial_rounds_per_s (grid_k1024_w2)"),
    "sched.scheduler.wait_s": ("s", "lower", "trial_rounds_per_s (grid_k1024_w2)"),
    "sched.worker.wait_s": ("s", "lower", "trial_rounds_per_s (grid_k1024_w2)"),
    "serve.service.queue_wait_s": ("s", "lower", "cold_p50_s (serve_mixed)"),
    "serve.service.computed": ("count", "lower", "cold_p50_s (serve_mixed)"),
    "serve.http.polls_per_cold": ("count", "lower", "cold_p50_s (serve_mixed)"),
    "unattributed_s": ("s", "lower", "-"),
    "trace_overhead": ("ratio", "lower", "-"),
}

_LAYER_NAMES = (ROOT, WAIT) + tuple(layer.name for layer in LAYERS)
_ROOT_ID, _WAIT_ID = 0, 1


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    rows = []
    for layer in LAYERS:
        rows.append((f"{layer.name}.calls", "count", "lower"))
        rows.append((f"{layer.name}.self_s", "s", "lower"))
    rows.extend((name, unit, better) for name, (unit, better, _) in EXTRAS.items())
    return rows


# ----------------------------------------------------------------------
# Recording


class _ThreadSpans:
    """Span columns of one thread, plus its open-span stack."""

    __slots__ = ("name", "layer", "start", "end", "parent", "stack")

    def __init__(self, name: str) -> None:
        self.name = name
        self.layer = array.array("b")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.stack: list[int] = []

    def open(self, layer_id: int) -> int:
        index = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(-1.0)
        self.stack.append(index)
        self.start.append(monotonic())
        return index

    def close(self, index: int) -> None:
        self.end[index] = monotonic()
        self.stack.pop()


def _counter_values() -> dict[str, float]:
    values = {}
    for row in get_registry().snapshot()["counters"]:  # type: ignore[union-attr]
        labels = ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
        values[f"{row['name']}{{{labels}}}"] = float(row["value"])
    return values


class Ledger:
    """Installs the layer wrappers and records this process's spans."""

    def __init__(self, trace_dir: Path, role: str) -> None:
        self.trace_dir = Path(trace_dir)
        self.absent: list[str] = []
        #: ``[pid, thread, span]`` open in the parent when this process forked.
        self.forked_from: list[Any] | None = None
        self._lock = threading.Lock()
        self._reset(role)
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self, role: str) -> None:
        self.pid = os.getpid()
        self.role = role
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self.counts: dict[str, int] = {}
        self.events: list[tuple[str, float, str]] = []
        self._counters_at_start = _counter_values()

    def _after_fork(self) -> None:
        spans = getattr(self._local, "spans", None)
        parent = [self.pid, spans.name, spans.stack[-1]] if spans and spans.stack else None
        self._lock = threading.Lock()
        self._reset("worker")
        self.forked_from = parent

    # -- span bookkeeping ----------------------------------------------

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.current_thread().name)
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
        return spans

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def event(self, kind: str, at: float, key: str = "") -> None:
        self.events.append((kind, at, key))

    @contextmanager
    def root(self) -> Iterator[None]:
        """A root span: one timed benchmark call."""
        spans = self._spans()
        index = spans.open(_ROOT_ID)
        try:
            yield
        finally:
            spans.close(index)

    def _wrap(self, layer_id: int, fn: Callable[..., Any], hook: "Hook | None") -> Any:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            spans = self._spans()
            index = spans.open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.close(index)
            if hook is not None:
                hook(self, args, result, spans.start[index], spans.end[index])
            if self.role == "worker" and not spans.stack:
                # A forked grid worker's root returned: its process ends
                # without running any more of the benchmark's code.
                self.dump()
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target of :data:`LAYERS`; missing ones go absent."""
        for name in WAIT_MODULES:
            try:
                module = importlib.import_module(name)
            except ImportError:
                continue
            clock = getattr(module, "time", None)
            if clock is not None:
                sleep = self._wrap(_WAIT_ID, clock.sleep, None)
                setattr(module, "time", _TimeProxy(clock, sleep))
        for layer_id, layer in enumerate(LAYERS, start=_WAIT_ID + 1):
            found = 0
            for target in layer.targets:
                try:
                    found += self._install_target(layer_id, target)
                except (ImportError, AttributeError):
                    pass
            if not found:
                self.absent.append(layer.name)

    def _install_target(self, layer_id: int, target: str) -> int:
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        hook = HOOKS.get(target)
        if "/" in qualname:
            class_name, method = qualname.split("/")
            base = getattr(module, class_name)
            classes = [base, *_subclasses(base)]
            owners = [cls for cls in classes if method in vars(cls)]
            for cls in owners:
                self._wrap_method(cls, method, layer_id, hook)
            return len(owners)
        if "." in qualname:
            class_name, method = qualname.split(".")
            self._wrap_method(getattr(module, class_name), method, layer_id, hook)
            return 1
        original = getattr(module, qualname)
        wrapped = self._wrap(layer_id, original, hook)
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "")
            if name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, wrapped)
        return 1

    def _wrap_method(self, cls: type, method: str, layer_id: int, hook: "Hook | None") -> None:
        raw = vars(cls)[method]
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(self._wrap(layer_id, raw.__func__, hook)))
        elif isinstance(raw, staticmethod):
            setattr(cls, method, staticmethod(self._wrap(layer_id, raw.__func__, hook)))
        else:
            setattr(cls, method, self._wrap(layer_id, raw, hook))

    # -- output ----------------------------------------------------------

    def dump(self) -> Path:
        """Write this process's spans and counter deltas (overwrites)."""
        start = self._counters_at_start
        counters = {
            name: value - start.get(name, 0.0)
            for name, value in _counter_values().items()
            if value - start.get(name, 0.0) > 0
        }
        threads = [
            {
                "name": spans.name,
                "layer": spans.layer.tolist(),
                "start": spans.start.tolist(),
                "end": spans.end.tolist(),
                "parent": spans.parent.tolist(),
            }
            for spans in list(self._threads)
        ]
        payload = {
            "pid": self.pid,
            "role": self.role,
            "forked_from": self.forked_from,
            "layers": list(_LAYER_NAMES),
            "absent": self.absent,
            "threads": threads,
            "counts": dict(self.counts),
            "events": self.events,
            "counters": counters,
        }
        path = self.trace_dir / f"{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
        return path


class _TimeProxy:
    """A module's ``time`` with ``sleep`` recorded as a wait span."""

    def __init__(self, module: Any, sleep: Callable[[float], None]) -> None:
        self._module = module
        self.sleep = sleep

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


Hook = Callable[[Ledger, tuple, Any, float, float], None]


def _draw(ledger: Ledger, args: tuple, result: Any, start: float, end: float) -> None:
    if result is None:
        ledger.count("util.rng_block.fallback")


def _lookup(ledger: Ledger, args: tuple, result: Any, start: float, end: float) -> None:
    ledger.count("sim.pi_cache.lookups")


def _kernel(ledger: Ledger, args: tuple, result: Any, start: float, end: float) -> None:
    ledger.count("util.mathx.calls")


def _run_trials(ledger: Ledger, args: tuple, result: Any, start: float, end: float) -> None:
    ledger.count("sim.runner.calls")


def _disk_get(ledger: Ledger, args: tuple, result: Any, start: float, end: float) -> None:
    ledger.count("store.pi_disk.gets")
    if result is not None:
        ledger.count("store.pi_disk.hits")


def _disk_put(ledger: Ledger, args: tuple, result: Any, start: float, end: float) -> None:
    ledger.count("store.pi_disk.writes")


def _try_claim(ledger: Ledger, args: tuple, result: Any, start: float, end: float) -> None:
    if result is None:
        ledger.count("sched.leases.denied")
    ledger.event("claim", start, str(args[1]))


def _submit(ledger: Ledger, args: tuple, result: Any, start: float, end: float) -> None:
    ledger.count("serve.service.submits")
    digest, disposition = result
    if disposition == "queued":
        ledger.event("queued", end, digest)


def _run_grid(ledger: Ledger, args: tuple, result: Any, start: float, end: float) -> None:
    ledger.event("run_grid_start", start)
    ledger.event("run_grid_end", end)


def _write_record(ledger: Ledger, args: tuple, result: Any, start: float, end: float) -> None:
    ledger.event("commit", end)


HOOKS: dict[str, Hook] = {
    "repro.sim.counting:JoinDistributionCache.distribution": _lookup,
    "repro.util.mathx:exact_join_probabilities": _kernel,
    "repro.sim.runner:run_trials": _run_trials,
    "repro.util.rng_block:BinomialBlockSampler.draw": _draw,
    "repro.store.pi_disk:DiskPiCache.get": _disk_get,
    "repro.store.pi_disk:DiskPiCache.put": _disk_put,
    "repro.sched.leases:LeaseManager.try_claim": _try_claim,
    "repro.serve.service:ScenarioService.submit": _submit,
    "repro.sched.scheduler:run_grid": _run_grid,
    "repro.store.store:ResultStore.write_record": _write_record,
}

#: Wrapped call counts that must equal the program's own counters:
#: (what, ledger count, process role or None for all, counter names).
CROSS_CHECKS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    (
        "JoinDistributionCache.distribution calls = pi-cache lookups",
        "sim.pi_cache.lookups",
        None,
        tuple(f"repro_pi_cache_lookups_total{{tier={tier}}}"
              for tier in ("local", "shared", "disk", "miss")),
    ),
    (
        "exact_join_probabilities calls = pi-cache misses",
        "util.mathx.calls",
        None,
        ("repro_pi_cache_lookups_total{tier=miss}",),
    ),
    (
        "run_trials calls in grid workers = points computed",
        "sim.runner.calls",
        "worker",
        ("repro_sched_points_total{outcome=computed}",),
    ),
    (
        "ScenarioService.submit calls = serve dispositions",
        "serve.service.submits",
        "server",
        tuple(f"repro_serve_requests_total{{disposition={d}}}"
              for d in ("hit", "coalesced", "busy", "queued")),
    ),
)

_ledger: Ledger | None = None


def current() -> Ledger | None:
    """The ledger installed in this process, if any."""
    return _ledger


def install(trace_dir: str | Path, role: str) -> Ledger:
    """Install the process's ledger (once) and return it."""
    global _ledger
    if _ledger is None:
        _ledger = Ledger(Path(trace_dir), role)
        _ledger.install()
    return _ledger


# ----------------------------------------------------------------------
# Merging


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _thread_ledger(
    thread: dict[str, Any], names: list[str], forked: dict[int, list[tuple[float, float]]]
) -> dict[str, Any]:
    """Per-layer calls/self-times of one thread, and its unclosed spans.

    ``forked`` maps a span index to the top-level spans of the processes
    forked inside it: their time is the child's, not the span's own.
    """
    layer, start, end, parent = thread["layer"], thread["start"], thread["end"], thread["parent"]
    n = len(start)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    has_roots = any(names[layer_id] == ROOT for layer_id in layer)
    # In a thread with root spans, only the work under them is measured;
    # spans outside (set-up and output checks) are left out.
    counted = [False] * n
    for i in range(n):
        if parent[i] >= 0:
            counted[i] = counted[parent[i]]
        else:
            counted[i] = names[layer[i]] == ROOT or not has_roots
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    wait_s: dict[str, float] = {}
    unclosed = 0
    top: list[tuple[float, float]] = []
    root_time = unattributed = 0.0
    for i in range(n):
        if not counted[i]:
            continue
        if end[i] < 0:
            unclosed += 1
            continue
        kids = [(start[j], end[j]) for j in children[i] if end[j] >= 0]
        own = (end[i] - start[i]) - _covered(kids + forked.get(i, []), start[i], end[i])
        name = names[layer[i]]
        if name == ROOT:
            root_time += end[i] - start[i]
            unattributed += own
            continue
        if name == WAIT:
            waiter = names[layer[parent[i]]] if parent[i] >= 0 else ROOT
            wait_s[waiter] = wait_s.get(waiter, 0.0) + (end[i] - start[i])
            if parent[i] < 0:
                top.append((start[i], end[i]))
            continue
        if parent[i] < 0:
            top.append((start[i], end[i]))
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
    if not has_roots:
        root_time = _covered(top, min((s for s, _ in top), default=0.0), float("inf"))
    return {
        "name": thread["name"],
        "calls": calls,
        "self_s": self_s,
        "wait_s": wait_s,
        "root_s": root_time,
        "unattributed_s": unattributed,
        "unclosed": unclosed,
    }


def merge(trace_dir: Path, client: dict[str, Any] | None = None) -> dict[str, Any]:
    """Merge every per-pid file under ``trace_dir`` into the layer ledger.

    ``client`` carries what only the load generator saw (serve
    workload): summed client-observed request latency and poll counts.
    """
    processes = []
    for path in sorted(Path(trace_dir).glob("*.json")):
        processes.append(json.loads(path.read_text(encoding="utf-8")))
    # Top-level spans of each forked child, keyed by the parent span open
    # at the fork: (parent pid, thread name) -> span index -> intervals.
    forked: dict[tuple[int, str], dict[int, list[tuple[float, float]]]] = {}
    for proc in processes:
        if proc["forked_from"] is None:
            continue
        pid, thread_name, index = proc["forked_from"]
        spans = forked.setdefault((pid, thread_name), {}).setdefault(index, [])
        for thread in proc["threads"]:
            for start, end, parent in zip(thread["start"], thread["end"], thread["parent"]):
                if parent < 0 and end >= 0:
                    spans.append((start, end))
    calls = {layer.name: 0 for layer in LAYERS}
    self_s = {layer.name: 0.0 for layer in LAYERS}
    wait_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    counters: dict[str, float] = {}
    by_role: dict[str, tuple[dict[str, int], dict[str, float]]] = {}
    events: list[tuple[str, float, str]] = []
    absent: set[str] = set()
    threads_out = []
    unattributed = 0.0
    request_thread_busy = 0.0
    for proc in processes:
        names = proc["layers"]
        absent.update(proc["absent"])
        role_counts, role_counters = by_role.setdefault(proc["role"], ({}, {}))
        for key, value in proc["counts"].items():
            counts[key] = counts.get(key, 0) + value
            role_counts[key] = role_counts.get(key, 0) + value
        for key, value in proc["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
            role_counters[key] = role_counters.get(key, 0.0) + value
        events.extend((kind, at, key) for kind, at, key in proc["events"])
        for thread in proc["threads"]:
            row = _thread_ledger(thread, names, forked.get((proc["pid"], thread["name"]), {}))
            row["pid"], row["role"] = proc["pid"], proc["role"]
            threads_out.append(row)
            unattributed += row["unattributed_s"]
            for name, value in row["calls"].items():
                calls[name] = calls.get(name, 0) + value
            for name, value in row["self_s"].items():
                self_s[name] = self_s.get(name, 0.0) + value
            for name, value in row["wait_s"].items():
                wait_s[name] = wait_s.get(name, 0.0) + value
            if proc["role"] == "server" and not row["name"].startswith("serve-worker"):
                request_thread_busy += row["root_s"]

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    metrics: dict[str, float] = {}
    client = client or {}
    if client.get("latency_s_total") is not None:
        # serve.http: what the client waited beyond the server-side layer
        # spans of the request threads (parsing, rendering, event loop,
        # thread hops, interpreter-lock waits), plus record_body itself.
        self_s["serve.http"] += max(0.0, client["latency_s_total"] - request_thread_busy)
    for layer in LAYERS:
        metrics[f"{layer.name}.calls"] = float(calls[layer.name])
        metrics[f"{layer.name}.self_s"] = self_s[layer.name]

    lookups = {
        tier: counters.get(f"repro_pi_cache_lookups_total{{tier={tier}}}", 0.0)
        for tier in ("local", "shared", "disk", "miss")
    }
    metrics["util.rng_block.fallback_ratio"] = ratio(
        counts.get("util.rng_block.fallback", 0), calls["util.rng_block"]
    )
    metrics["sim.pi_cache.hit_ratio"] = ratio(
        sum(lookups.values()) - lookups["miss"], sum(lookups.values())
    )
    metrics["store.pi_disk.writes"] = float(counts.get("store.pi_disk.writes", 0))
    metrics["store.pi_disk.hit_ratio"] = ratio(
        counts.get("store.pi_disk.hits", 0), counts.get("store.pi_disk.gets", 0)
    )
    claims = sum(1 for kind, _, _ in events if kind == "claim")
    metrics["sched.leases.denied_ratio"] = ratio(counts.get("sched.leases.denied", 0), claims)
    metrics["sched.scheduler.drain_lag_s"] = _drain_lag(events)
    metrics["sched.scheduler.wait_s"] = wait_s.get("sched.scheduler", 0.0)
    metrics["sched.worker.wait_s"] = wait_s.get("sched.worker", 0.0)
    metrics["serve.service.queue_wait_s"] = _queue_wait(events)
    metrics["serve.service.computed"] = float(client.get("computed", 0))
    metrics["serve.http.polls_per_cold"] = ratio(client.get("polls", 0), client.get("cold", 0))
    metrics["unattributed_s"] = unattributed
    checks = []
    for what, count, role, names in CROSS_CHECKS:
        role_counts, role_counters = (counts, counters) if role is None else by_role.get(role, ({}, {}))
        wrapped, kept = role_counts.get(count, 0), sum(role_counters.get(n, 0.0) for n in names)
        checks.append((what, wrapped, kept))
    if "computed" in client:
        server_counts = by_role.get("server", ({}, {}))[0]
        checks.append(("run_trials calls in the server = /status computed",
                       server_counts.get("sim.runner.calls", 0), client["computed"]))
    return {
        "metrics": metrics,
        "absent": sorted(absent),
        "threads": threads_out,
        "checks": checks,
        "consistent": all(row["unclosed"] == 0 for row in threads_out)
        and all(wrapped == kept for _, wrapped, kept in checks),
        "processes": len(processes),
        "child_layers": sorted(
            {
                name
                for row in threads_out
                if row["role"] != "main"
                for name, value in row["calls"].items()
                if value
            }
        ),
    }


def _drain_lag(events: list[tuple[str, float, str]]) -> float:
    """Mean time from a grid drain's last commit to ``run_grid`` returning."""
    starts = sorted(at for kind, at, _ in events if kind == "run_grid_start")
    ends = sorted(at for kind, at, _ in events if kind == "run_grid_end")
    commits = [at for kind, at, _ in events if kind == "commit"]
    lags = []
    for start, end in zip(starts, ends):
        inside = [at for at in commits if start <= at <= end]
        if inside:
            lags.append(end - max(inside))
    return sum(lags) / len(lags) if lags else 0.0


def _queue_wait(events: list[tuple[str, float, str]]) -> float:
    """Mean time from a queued submit to the first lease claim for it."""
    queued = {key: at for kind, at, key in events if kind == "queued"}
    first_claim: dict[str, float] = {}
    for kind, at, key in events:
        if kind == "claim" and key in queued and at >= queued[key]:
            first_claim[key] = min(at, first_claim.get(key, at))
    waits = [first_claim[key] - queued[key] for key in first_claim]
    return sum(waits) / len(waits) if waits else 0.0
