"""CI benchmark-regression gate for the counting-engine benchmark record.

Compares a fresh benchmark run (``BENCH_fresh.json``, produced by
``benchmarks/bench_join_kernel.py`` in the CI benchmark step) against the
committed baseline (``BENCH_counting.json``) and fails the build when the
performance trajectory regresses:

* **timings** — every numeric leaf whose key mentions ``seconds`` (e.g.
  ``seconds_per_call``, ``dp_nocache_seconds``) must not exceed its
  baseline value by more than the slowdown budget (default 1.5x);
  absolute wall-times are only comparable between machines of similar
  speed, so the committed baseline must be recorded on (or re-recorded
  from) the runner class that executes the gate — refresh it with
  ``python benchmarks/bench_join_kernel.py --json BENCH_counting.json``
  (e.g. from the uploaded ``BENCH_fresh`` artifact of a trusted green
  run) whenever the CI hardware changes or the gate starts failing
  uniformly across all timing leaves.  A slower-than-budget machine
  shows up as *every* leaf failing at a similar ratio; a real
  regression shows up in the specific kernel or scenario that changed;
* **speedup floors** — the baseline's ``floors`` table maps dotted
  record paths (``"speedup_at_k12"``) to the
  minimum acceptable value of that ratio in the fresh run.  Ratios of
  two same-machine timings are machine-independent, so floors are exact
  requirements, not budgets;
* **coverage** — a timing or floored path present in the baseline but
  missing from the fresh record fails too: silently dropping a benchmark
  must not pass the gate.

Exit status 0 means no regression; 1 means at least one violation (all
are printed, not just the first).  The gate's own behaviour — including
"a synthetic 2x slowdown must fail" — is pinned by
``tests/benchmarks/test_check_regression.py``.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Iterator

DEFAULT_MAX_SLOWDOWN = 1.5

#: Key substring marking a lower-is-better wall-time leaf.
TIMING_MARKER = "seconds"

#: Record keys never treated as benchmark measurements.
METADATA_KEYS = frozenset({"floors"})


def iter_numeric_leaves(record: Any, prefix: str = "") -> Iterator[tuple[str, float]]:
    """Yield ``(dotted_path, value)`` for every numeric leaf of ``record``."""
    if isinstance(record, dict):
        for key, value in record.items():
            if not prefix and key in METADATA_KEYS:
                continue
            path = f"{prefix}.{key}" if prefix else str(key)
            yield from iter_numeric_leaves(value, path)
    elif isinstance(record, bool):
        return
    elif isinstance(record, (int, float)):
        yield prefix, float(record)


def lookup(record: Any, path: str) -> float | None:
    """The numeric leaf at dotted ``path``, or ``None`` if absent."""
    node = record
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def check_regressions(
    baseline: dict, fresh: dict, *, max_slowdown: float = DEFAULT_MAX_SLOWDOWN
) -> list[str]:
    """All gate violations of ``fresh`` against ``baseline`` (empty = pass)."""
    violations: list[str] = []

    for path, base_value in iter_numeric_leaves(baseline):
        if TIMING_MARKER not in path.rsplit(".", 1)[-1]:
            continue
        fresh_value = lookup(fresh, path)
        if fresh_value is None:
            violations.append(f"timing {path}: present in baseline but missing from fresh run")
            continue
        if base_value > 0 and fresh_value > base_value * max_slowdown:
            violations.append(
                f"timing {path}: {fresh_value:.6g}s is {fresh_value / base_value:.2f}x "
                f"the baseline {base_value:.6g}s (budget {max_slowdown:.2f}x)"
            )

    floors = baseline.get("floors", {})
    if not isinstance(floors, dict):
        violations.append("baseline 'floors' table is not a mapping")
        floors = {}
    for path, floor in floors.items():
        fresh_value = lookup(fresh, path)
        if fresh_value is None:
            violations.append(f"floored ratio {path}: missing from fresh run")
        elif fresh_value < float(floor):
            violations.append(
                f"ratio {path}: {fresh_value:.3f} dropped below its floor {float(floor):.3f}"
            )
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        default="BENCH_counting.json",
        help="committed baseline benchmark record",
    )
    parser.add_argument(
        "--fresh",
        default="BENCH_fresh.json",
        help="benchmark record produced by this CI run",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=DEFAULT_MAX_SLOWDOWN,
        help="largest tolerated fresh/baseline ratio for any timing leaf",
    )
    args = parser.parse_args(argv)
    if args.max_slowdown <= 0:
        parser.error("--max-slowdown must be positive")

    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)
    with open(args.fresh, encoding="utf-8") as f:
        fresh = json.load(f)

    violations = check_regressions(baseline, fresh, max_slowdown=args.max_slowdown)
    if violations:
        print(f"benchmark regression gate FAILED ({len(violations)} violation(s)):")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    n_timings = sum(
        1
        for path, _ in iter_numeric_leaves(baseline)
        if TIMING_MARKER in path.rsplit(".", 1)[-1]
    )
    print(
        f"benchmark regression gate passed: {n_timings} timings within "
        f"{args.max_slowdown:.2f}x, {len(baseline.get('floors', {}))} ratio floors held"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
