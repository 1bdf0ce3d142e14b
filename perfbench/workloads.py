"""The benchmark's three workloads, each run in a fresh interpreter.

    python3 perfbench/workloads.py WORKLOAD --seed N --seconds S --work DIR
        [--trace-dir DIR] [--setup-only]

The child imports the program, builds the workload's inputs from the
seed and creates its first store, then prints ``ready``: the parent's
set-up clock stops there.  It then runs the workload for ``--seconds``
seconds and prints one JSON line of raw measurements and output checks.
With ``--trace-dir`` the layer wrappers of ``ledger.py`` are installed
first and spans are written there.

The program only ever sees the generated specs, grids and requests, and
only through its public entry points: ``sweep_scenario``, ``run_grid``
and the ``serve`` HTTP API.  Each workload repeats one unit of work
until the time is up; every unit gets a fresh store and the same
inputs, so every unit must leave a byte-identical ``results/`` tree.

Why these workloads (the shape defines each; counts are sized so one
unit takes a few seconds on a 2-vCPU machine):

* ``sweep_k8`` -- the paper's colony (Algorithm Ant, n = 8000 ants,
  k = 8 uniform tasks, ``calibrated_sigmoid`` noise at gamma* = 0.01)
  swept over 8 step sizes gamma, 8 trials x 500 rounds each, through
  store-backed ``sweep_scenario`` calls, one point per call; each point
  is re-rendered from the store once, as E16 re-renders every point of
  its figure once.  Per-round engine work dominates, so engine and
  batching changes show here and join-kernel changes mostly do not.
* ``grid_k1024_w2`` -- a gamma x power-law alpha grid (4 x 2 points,
  1 trial x 60 rounds each) of k = 1024 heterogeneous colonies, drained by
  ``run_grid(workers=2, shared_pi_cache=True)``; then the drained grid
  is read back with ``collect_grid`` (``sched collect``, the figure
  path), once per computed point.  Every point's per-task lambda is
  calibrated to an equal relative grey zone against its own demand, as
  E16 builds its specs.  The join kernel and the disk cache tier
  dominate; it is the only workload with forked workers, lease
  contention and a cross-process cache tier.
* ``serve_mixed`` -- the ``serve`` command (2 worker threads) in its own
  process over a store holding 16 points committed by
  ``sweep_scenario``.  Two closed-loop clients on two keep-alive
  connections send hot requests (store hits, no simulation) and, spread
  evenly over the run, 150 distinct cold ones (k = 8, 250 rounds,
  trials = 1: POST, 202, poll every 5 ms, 200).  Hot requests measure
  HTTP, request digest and store reads; cold ones add queueing, leases,
  compute and store writes beside them.  A hot request that meets a
  cold compute waits for the interpreter lock for about the length of
  the compute; there are enough cold requests (about 2% of the hot
  ones) that the hot p99 measures that wait.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import itertools
import json
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import repro
from repro.obs import monotonic
from repro.scenario import ScenarioSpec
from repro.store import ResultStore

import ledger as ledger_mod
import procs

#: Candidate step sizes: every one is <= 1/16, which Algorithm Ant accepts.
GAMMAS = tuple(round(0.008 + 0.00025 * i, 5) for i in range(219))
#: Candidate power-law exponents for the grid's demand axis (E16's range).
ALPHAS = tuple(round(0.4 + 0.1 * i, 1) for i in range(9))

SWEEP_POINTS, SWEEP_TRIALS, SWEEP_ROUNDS = 8, 8, 500
GRID_K, GRID_TRIALS, GRID_ROUNDS = 1024, 1, 60
SERVE_HOT_POINTS, SERVE_COLD, SERVE_ROUNDS = 16, 150, 250
#: Poll interval of a cold request, and how long one may take at most.
POLL_S, COLD_TIMEOUT_S = 0.005, 120.0


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _pick(rng: np.random.Generator, values: tuple[float, ...], n: int) -> list[float]:
    """One value from each of ``n`` equal slices of ``values``, in order.

    Per-point cost depends on gamma, so every seed spans the whole range
    alike and the seed moves the inputs, not the amount of work.
    """
    edges = np.linspace(0, len(values), n + 1).astype(int)
    return [float(values[rng.integers(lo, hi)]) for lo, hi in zip(edges[:-1], edges[1:])]


def colony_spec(seed: int, rounds: int) -> ScenarioSpec:
    """The paper's k = 8 colony (uniform demands, calibrated sigmoid noise)."""
    return ScenarioSpec(
        algorithm={"name": "ant", "params": {"gamma": 0.025}},
        demand={"name": "uniform", "params": {"n": 8000, "k": 8}},
        feedback={"name": "calibrated_sigmoid", "params": {"gamma_star": 0.01}},
        engine={"name": "counting"},
        rounds=rounds,
        seed=seed,
        run_params={"burn_in": rounds // 4},
        gamma_star=0.01,
        label="colony-k8",
    )


#: The benchmark's own feedback model, registered by ``prepare_grid``.
RELATIVE_SIGMOID = "perfbench_relative_sigmoid"


def relative_sigmoid(gamma_star: float, demand: Any = None) -> Any:
    """Sigmoid noise with per-task lambda at an equal relative grey zone.

    E16's calibration (``lambda_j * d(j)`` constant, solved for the
    smallest demand), solved against the demand the scenario injects, so
    every grid point is calibrated against its own alpha.
    """
    from repro.env.critical import lambda_for_critical_value
    from repro.env.feedback import SigmoidFeedback

    d = demand.as_array().astype(np.float64)
    lam_min = lambda_for_critical_value(demand, gamma_star=gamma_star)
    return SigmoidFeedback([float(x) for x in lam_min * (d.min() / d)])


def heterogeneous_spec(seed: int, alpha: float) -> ScenarioSpec:
    """A k = 1024 power-law colony with E16's per-task calibration."""
    return ScenarioSpec(
        algorithm={"name": "ant", "params": {"gamma": 0.025}},
        demand={"name": "powerlaw", "params": {"n": 100 * GRID_K, "k": GRID_K, "alpha": alpha}},
        feedback={"name": RELATIVE_SIGMOID, "params": {"gamma_star": 0.01}},
        engine={"name": "counting"},
        rounds=GRID_ROUNDS,
        seed=seed,
        run_params={"burn_in": GRID_ROUNDS // 4},
        gamma_star=0.01,
        label="powerlaw-k1024",
    )


def tree_sha256(root: Path) -> str:
    """Digest of every file's path and bytes under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def new_store(path: Path) -> ResultStore:
    """A fresh, empty store directory."""
    path.mkdir(parents=True)
    return ResultStore(path)


def all_readable(store: Path, expected: int) -> bool:
    """Every committed record reads back, and there are ``expected`` of them."""
    results = ResultStore(store)
    digests = [digest for digest, _ in results.iter_records()]
    return len(digests) == expected and all(results.read_record(d) is not None for d in digests)


class Measure:
    """Op latencies and output checks of one workload run."""

    def __init__(self, ledger: ledger_mod.Ledger | None) -> None:
        self.ledger = ledger
        self.hot_s: list[float] = []
        self.cold_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, float]:
        """Time one entry call (as a root span when tracing)."""
        self.attempted += 1
        started = monotonic()
        if self.ledger is None:
            result = fn(*args, **kwargs)
        else:
            with self.ledger.root():
                result = fn(*args, **kwargs)
        return result, monotonic() - started

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def report(self, **extra: Any) -> dict[str, Any]:
        return {
            "hot_s": self.hot_s,
            "cold_s": self.cold_s,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            **extra,
        }


# ----------------------------------------------------------------------
# sweep_k8


def _install(trace_dir: Path | None) -> ledger_mod.Ledger | None:
    return None if trace_dir is None else ledger_mod.install(trace_dir, "main")


def prepare_sweep(seed: int, work: Path, trace_dir: Path | None) -> Callable[[float], dict]:
    ledger = _install(trace_dir)
    rng = _rng(seed, 1)
    gammas = _pick(rng, GAMMAS, SWEEP_POINTS)
    spec = colony_spec(int(rng.integers(1, 2**31)), SWEEP_ROUNDS)
    stores = (new_store(work / f"sweep-{i}") for i in itertools.count())
    first = next(stores)

    def unit(store: ResultStore, m: Measure) -> str:
        # Each point is re-rendered once, as E16 does, right after it is
        # computed: hot samples then span the whole run instead of one
        # burst per unit, which a shared machine's slow spells would skew.
        for gamma in gammas:
            out, dt = m.call(repro.sweep_scenario, spec, "algorithm.gamma", [gamma],
                             trials=SWEEP_TRIALS, store=str(store.root))
            m.cold_s.append(dt)
            ok = out.resumed == [False]
            m.check("cold points computed", ok)
            m.failed += not ok
            regrets = out.summaries[0].average_regrets
            out, dt = m.call(repro.sweep_scenario, spec, "algorithm.gamma", [gamma],
                             trials=SWEEP_TRIALS, store=str(store.root))
            m.hot_s.append(dt)
            ok = out.resumed == [True] and np.array_equal(out.summaries[0].average_regrets, regrets)
            m.check("re-render equals the computed points", ok)
            m.failed += not ok
        m.check("every point committed and readable", all_readable(store.root, SWEEP_POINTS))
        return tree_sha256(store.results_dir)

    def run(seconds: float) -> dict:
        return _repeat(unit, first, stores, seconds, ledger,
                       op_trial_rounds=SWEEP_TRIALS * SWEEP_ROUNDS,
                       inputs={"gammas": gammas, "spec_seed": spec.seed})

    return run


# ----------------------------------------------------------------------
# grid_k1024_w2


def prepare_grid(seed: int, work: Path, trace_dir: Path | None) -> Callable[[float], dict]:
    import repro.sched

    repro.register_feedback(RELATIVE_SIGMOID, relative_sigmoid, allow_overwrite=True)
    ledger = _install(trace_dir)
    rng = _rng(seed, 2)
    gammas = _pick(rng, GAMMAS, 4)
    alphas = _pick(rng, ALPHAS, 2)
    spec = heterogeneous_spec(int(rng.integers(1, 2**31)), alphas[0])
    grid = repro.sched.GridSpec(
        spec=spec,
        axes=(
            repro.sched.GridAxis("algorithm.gamma", tuple(gammas)),
            repro.sched.GridAxis("demand.alpha", tuple(alphas)),
        ),
        rounds=GRID_ROUNDS,
        trials=GRID_TRIALS,
    )
    stores = (new_store(work / f"grid-{i}") for i in itertools.count())
    first = next(stores)

    def unit(store: ResultStore, m: Measure) -> str:
        # A 0.05 s status poll instead of the default 0.5 s keeps drain
        # times from snapping to whole ticks (drain_lag_s still shows it).
        status, dt = m.call(repro.sched.run_grid, str(store.root), grid,
                            workers=2, shared_pi_cache=True, progress_interval=0.05)
        m.cold_s.append(dt)
        ok = status["done"] and status["committed"] == grid.n_points
        m.check("grid drained", ok)
        m.failed += not ok
        # The figure path reads the drained grid back; it writes nothing.
        # Once per computed point, as E16 re-renders each point once.
        for _ in range(grid.n_points):
            collected, dt = m.call(repro.sched.collect_grid, str(store.root), grid)
            m.hot_s.append(dt)
            ok = len(collected.summaries) == grid.n_points
            m.check("collect_grid reads every drained point", ok)
            m.failed += not ok
        m.check("every point committed and readable", all_readable(store.root, grid.n_points))
        return tree_sha256(store.results_dir)

    def run(seconds: float) -> dict:
        return _repeat(unit, first, stores, seconds, ledger,
                       op_trial_rounds=grid.n_points * GRID_TRIALS * GRID_ROUNDS,
                       inputs={"gammas": gammas, "alphas": alphas, "spec_seed": spec.seed})

    return run


def _repeat(
    unit: Callable[[ResultStore, Measure], str],
    first: ResultStore,
    stores: Iterator[ResultStore],
    seconds: float,
    ledger: ledger_mod.Ledger | None,
    *,
    op_trial_rounds: int,
    inputs: dict[str, Any],
) -> dict:
    """Run ``unit`` on fresh stores until ``seconds`` have passed."""
    m = Measure(ledger)
    hashes = []
    store = first
    started = monotonic()
    while True:
        hashes.append(unit(store, m))
        if monotonic() - started >= seconds:
            break
        store = next(stores)
    wall = monotonic() - started
    m.check("every unit leaves the same results/ tree", len(set(hashes)) == 1)
    rss = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return m.report(
        units=len(hashes),
        wall_s=wall,
        op_trial_rounds=op_trial_rounds,
        results_sha256=hashes[0],
        peak_rss_mb=rss / 1024.0,
        inputs=inputs,
    )


# ----------------------------------------------------------------------
# serve_mixed


class _Plan:
    """Shared request schedule of the closed-loop clients.

    Cold request ``i`` becomes due at ``(i + 1/2) / n`` of the run, so
    the ``n`` cold points are spread evenly and always all sent; hot
    requests fill every other slot until the time is up.
    """

    def __init__(self, hot_order: list[int], n_cold: int, seconds: float) -> None:
        self._lock = threading.Lock()
        self._hot_order = hot_order
        self._hot_next = 0
        self._n_cold = n_cold
        self._cold_next = 0
        self.seconds = seconds
        self.started = monotonic()

    def take(self) -> tuple[str, int] | None:
        with self._lock:
            elapsed = monotonic() - self.started
            if self._cold_next < self._n_cold:
                due = (self._cold_next + 0.5) * self.seconds / self._n_cold
                if elapsed >= due:
                    self._cold_next += 1
                    return "cold", self._cold_next - 1
            if elapsed >= self.seconds:
                return None
            index = self._hot_order[self._hot_next % len(self._hot_order)]
            self._hot_next += 1
            return "hot", index


class _Client:
    """One closed-loop client on one keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = self._connect()
        # (start, latency), so the clients' samples merge in time order.
        self.hot_samples: list[tuple[float, float]] = []
        self.cold_samples: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.http_s = 0.0
        self.polls = 0
        self.reposts = 0
        self.hot_bodies: dict[int, bytes] = {}
        self.cold_bodies: dict[int, bytes] = {}
        self.errors: list[str] = []

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=COLD_TIMEOUT_S)

    def exchange(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        started = monotonic()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        self.http_s += monotonic() - started
        return response.status, data

    def _ok(self, kind: str, status: int, data: bytes) -> bytes | None:
        if status == 200:
            return data
        self.errors.append(f"{kind}: HTTP {status} {data[:200]!r}")
        return None

    def cold(self, post: bytes, digest: str) -> bytes | None:
        started = monotonic()
        status, data = self.exchange("POST", "/scenarios", post)
        while status == 202 and monotonic() - started < COLD_TIMEOUT_S:
            time.sleep(POLL_S)
            status, data = self.exchange("GET", f"/results/{digest}")
            self.polls += 1
            if status == 404:
                # ScenarioService.state_of checks the store before its
                # pending map, so a poll racing the commit reads "unknown".
                # Re-POSTing is the client's recovery: that path re-reads
                # the store.  Counted, so the race stays visible.
                self.reposts += 1
                status, data = self.exchange("POST", "/scenarios", post)
        self.cold_samples.append((started, monotonic() - started))
        return self._ok("cold", status, data)

    def hot(self, post: bytes) -> bytes | None:
        started = monotonic()
        status, data = self.exchange("POST", "/scenarios", post)
        self.hot_samples.append((started, monotonic() - started))
        return self._ok("hot", status, data)

    def loop(
        self, plan: _Plan, hot_posts: list[bytes], cold_posts: list[tuple[bytes, str]]
    ) -> None:
        while (job := plan.take()) is not None:
            kind, index = job
            self.attempted += 1
            try:
                if kind == "hot":
                    body = self.hot(hot_posts[index])
                    if body is not None:
                        self.hot_bodies.setdefault(index, body)
                        body = body if body == self.hot_bodies[index] else None
                else:
                    body = self.cold(*cold_posts[index])
                    if body is not None:
                        self.cold_bodies[index] = body
            except (OSError, http.client.HTTPException) as exc:
                self.errors.append(f"{kind} {index}: {type(exc).__name__}: {exc}")
                self.conn.close()
                self.conn = self._connect()
                body = None
            self.failed += body is None


def _histogram(prometheus: str, name: str) -> tuple[float, int]:
    """``(sum, count)`` of an unlabelled histogram in ``/metrics`` text."""
    values = {}
    for line in prometheus.splitlines():
        key, _, value = line.partition(" ")
        if key in (f"{name}_sum", f"{name}_count"):
            values[key] = float(value)
    return values.get(f"{name}_sum", 0.0), int(values.get(f"{name}_count", 0))


def prepare_serve(seed: int, work: Path, trace_dir: Path | None) -> Callable[[float], dict]:
    from repro.serve import record_body
    from repro.serve.request import ScenarioRequest

    rng = _rng(seed, 3)
    chosen = [float(g) for g in rng.permutation(_pick(rng, GAMMAS, SERVE_HOT_POINTS + SERVE_COLD))]
    hot_gammas, cold_gammas = sorted(chosen[:SERVE_HOT_POINTS]), chosen[SERVE_HOT_POINTS:]
    hot_order = [int(i) for i in rng.integers(0, SERVE_HOT_POINTS, size=1 << 16)]
    spec = colony_spec(int(rng.integers(1, 2**31)), SERVE_ROUNDS)
    store = new_store(work / "serve-store")

    def request(gamma: float) -> ScenarioRequest:
        return ScenarioRequest(spec=spec, params={"algorithm.gamma": gamma}, trials=1)

    def post(req: ScenarioRequest) -> bytes:
        return json.dumps(req.to_dict(), sort_keys=True).encode("utf-8")

    root = Path.cwd()

    def run(seconds: float) -> dict:
        # The fixture: 16 points committed by a store-backed sweep.
        repro.sweep_scenario(spec, "algorithm.gamma", hot_gammas, trials=1, store=str(store.root))
        hot_requests = [request(g) for g in hot_gammas]
        seeded = [store.read_record(r.digest()) for r in hot_requests]
        expected_hot = [record_body(r) if r is not None else b"" for r in seeded]
        cold_requests = [request(g) for g in cold_gammas]
        cold_posts = [(post(r), r.digest()) for r in cold_requests]
        hot_posts = [post(r) for r in hot_requests]

        proc, port, setup_s = procs.launch_server(root, work, store.root, trace_dir=trace_dir)
        try:
            plan = _Plan(hot_order, SERVE_COLD, seconds)
            clients = [_Client(port), _Client(port)]
            threads = [
                threading.Thread(target=c.loop, args=(plan, hot_posts, cold_posts), daemon=True)
                for c in clients
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = monotonic() - plan.started
            latency_s_total = sum(c.http_s for c in clients)
            _, data = clients[0].exchange("GET", "/status")
            service_status = json.loads(data)
            _, data = clients[0].exchange("GET", "/metrics")
            compute_s, computes = _histogram(data.decode("utf-8"), "repro_serve_compute_seconds")
            for client in clients:
                client.conn.close()
        finally:
            procs.stop(proc)
        m = Measure(None)
        m.hot_s = [lat for _, lat in sorted(h for c in clients for h in c.hot_samples)]
        m.cold_s = [lat for _, lat in sorted(s for c in clients for s in c.cold_samples)]
        for client in clients:
            m.attempted += client.attempted
            m.failed += client.failed
        hot_bodies = [c.hot_bodies for c in clients]
        m.check("seeded points are the records sweep_scenario committed",
                all(r is not None for r in seeded))
        m.check("every hot body equals the first body served for its digest",
                all(body == expected_hot[i]
                    for bodies in hot_bodies for i, body in bodies.items()))
        cold_bodies = {i: b for c in clients for i, b in c.cold_bodies.items()}
        m.check("every cold point answered with its own record",
                len(cold_bodies) == SERVE_COLD
                and all(json.loads(cold_bodies[i])["digest"] == cold_posts[i][1]
                        and json.loads(cold_bodies[i])["meta"]["value"] == cold_gammas[i]
                        for i in cold_bodies))
        m.check("serve.service.computed equals the distinct cold points",
                service_status["computed"] == computes == SERVE_COLD)
        m.check("every point committed and readable",
                all_readable(store.root, SERVE_HOT_POINTS + SERVE_COLD))
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return m.report(
            units=1,
            wall_s=wall,
            setup_s=setup_s,
            op_trial_rounds=SERVE_ROUNDS,
            compute={"seconds": compute_s, "count": computes},
            results_sha256=tree_sha256(store.results_dir),
            peak_rss_mb=rss / 1024.0,
            inputs={"hot_gammas": hot_gammas, "cold_gammas": cold_gammas, "spec_seed": spec.seed},
            client={
                "latency_s_total": latency_s_total,
                "polls": sum(c.polls for c in clients),
                "reposts_after_404": sum(c.reposts for c in clients),
                "cold": SERVE_COLD,
                "computed": service_status["computed"],
                "errors": [e for c in clients for e in c.errors][:5],
            },
        )

    return run


WORKLOADS: dict[str, Callable[..., Callable[[float], dict]]] = {
    "sweep_k8": prepare_sweep,
    "grid_k1024_w2": prepare_grid,
    "serve_mixed": prepare_serve,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    run = WORKLOADS[args.workload](args.seed, args.work, args.trace_dir)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = run(args.seconds)
    ledger = ledger_mod.current()
    if ledger is not None:
        ledger.dump()
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
