"""Offline trace analysis: ``repro-experiments obs report <trace.jsonl>``.

Parses a trace file written by :mod:`repro.obs.trace` and aggregates it
into a profile: top spans by total time, the join-kernel time breakdown
by dispatch method, and the join cache's hit ratio (from the
``pi_cache_stats`` summary events the engines emit at the end of each
run).  Torn final lines — possible if a traced process was killed
mid-write — are counted, not fatal.

The payload is plain data; ``--json`` renders it with
:func:`~repro.store.digest.canonical_json`, so two renders of the same
file are byte-identical (the CI obs smoke diffs them).
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

from repro.store.digest import canonical_json

__all__ = ["load_trace", "render_json", "render_text", "report_payload", "trace_report"]

#: Counter keys the engines put on every ``pi_cache_stats`` event.
_CACHE_COUNTS = ("hits", "misses")


def load_trace(path: str | Path) -> tuple[list[dict[str, object]], int]:
    """Parse a JSONL trace; returns ``(events, torn_line_count)``."""
    events: list[dict[str, object]] = []
    torn = 0
    with open(Path(path), "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                torn += 1
                continue
            if isinstance(record, dict):
                events.append(record)
            else:
                torn += 1
    return events, torn


def _span_rows(events: Iterable[dict[str, object]]) -> list[dict[str, object]]:
    totals: dict[str, dict[str, float]] = {}
    for record in events:
        dur = record.get("dur")
        name = record.get("name")
        if not isinstance(dur, (int, float)) or not isinstance(name, str):
            continue
        entry = totals.setdefault(name, {"count": 0.0, "total": 0.0, "max": 0.0})
        entry["count"] += 1
        entry["total"] += float(dur)
        entry["max"] = max(entry["max"], float(dur))
    ordered = sorted(totals.items(), key=lambda item: (-item[1]["total"], item[0]))
    return [
        {
            "name": name,
            "count": int(entry["count"]),
            "total_seconds": entry["total"],
            "mean_seconds": entry["total"] / entry["count"],
            "max_seconds": entry["max"],
        }
        for name, entry in ordered
    ]


def _kernel_rows(events: Iterable[dict[str, object]]) -> list[dict[str, object]]:
    by_method: dict[str, dict[str, float]] = {}
    for record in events:
        if record.get("name") != "join_kernel":
            continue
        dur = record.get("dur")
        if not isinstance(dur, (int, float)):
            continue
        attrs = record.get("attrs")
        method = "unknown"
        if isinstance(attrs, dict) and isinstance(attrs.get("method"), str):
            method = str(attrs["method"])
        entry = by_method.setdefault(method, {"count": 0.0, "total": 0.0})
        entry["count"] += 1
        entry["total"] += float(dur)
    rows = [
        {
            "method": method,
            "count": int(entry["count"]),
            "total_seconds": entry["total"],
        }
        for method, entry in sorted(by_method.items())
    ]
    return rows


def _cache_summary(events: Iterable[dict[str, object]]) -> dict[str, object]:
    counts = {key: 0 for key in _CACHE_COUNTS}
    runs = 0
    for record in events:
        if record.get("name") != "pi_cache_stats":
            continue
        attrs = record.get("attrs")
        if not isinstance(attrs, dict):
            continue
        runs += 1
        for key in _CACHE_COUNTS:
            value = attrs.get(key)
            if isinstance(value, (int, float)):
                counts[key] += int(value)
    lookups = sum(counts.values())
    summary: dict[str, object] = dict(counts)
    summary["runs"] = runs
    summary["lookups"] = lookups
    summary["hit_ratio"] = (counts["hits"] / lookups) if lookups else 0.0
    return summary


def report_payload(
    events: list[dict[str, object]], *, torn: int = 0, top: int = 10
) -> dict[str, object]:
    """Aggregate parsed trace events into the report payload."""
    spans = _span_rows(events)
    return {
        "events": len(events),
        "torn_lines": torn,
        "spans": spans[: max(top, 0)],
        "span_names": len(spans),
        "kernel": _kernel_rows(events),
        "cache": _cache_summary(events),
    }


def trace_report(path: str | Path, *, top: int = 10) -> dict[str, object]:
    """``load_trace`` + ``report_payload`` in one call."""
    events, torn = load_trace(path)
    return report_payload(events, torn=torn, top=top)


def render_json(payload: dict[str, object]) -> str:
    """Byte-stable canonical rendering (what ``--json`` prints)."""
    return canonical_json(payload)


def render_text(payload: dict[str, object]) -> str:
    """Human-readable report (column-aligned, still deterministic)."""
    lines: list[str] = []
    spans = payload["spans"]
    kernel = payload["kernel"]
    cache = payload["cache"]
    assert isinstance(spans, list) and isinstance(kernel, list) and isinstance(cache, dict)

    lines.append(f"events: {payload['events']}  (torn lines: {payload['torn_lines']})")
    lines.append("")
    lines.append("top spans by total time:")
    lines.append(f"  {'name':<24} {'count':>8} {'total_s':>12} {'mean_s':>12} {'max_s':>12}")
    for row in spans:
        lines.append(
            f"  {row['name']:<24} {row['count']:>8} "
            f"{row['total_seconds']:>12.6f} {row['mean_seconds']:>12.6f} "
            f"{row['max_seconds']:>12.6f}"
        )
    if not spans:
        lines.append("  (no spans)")
    lines.append("")
    lines.append("join-kernel time by method:")
    for row in kernel:
        lines.append(
            f"  {row['method']:<24} {row['count']:>8} {row['total_seconds']:>12.6f}"
        )
    if not kernel:
        lines.append("  (no kernel spans)")
    lines.append("")
    hit_ratio = cache["hit_ratio"]
    assert isinstance(hit_ratio, float)
    lines.append(
        "pi-cache: "
        f"lookups={cache['lookups']} hit_ratio={hit_ratio:.4f} "
        f"hits={cache['hits']} misses={cache['misses']} "
        f"(over {cache['runs']} runs)"
    )
    return "\n".join(lines) + "\n"
