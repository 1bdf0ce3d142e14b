"""``python -m repro.lint`` — the linter's command line.

Usage::

    python -m repro.lint src benchmarks            # lint trees (CI gate)
    python -m repro.lint --list-rules              # rule IDs and titles
    python -m repro.lint src --disable RPR005      # turn rules off
    python -m repro.lint src --no-registry         # skip the RPR006 import check
    python -m repro.lint src --json                # canonical JSON report

Exit status: 0 with no findings, 1 with findings (including unparsable
files, reported as RPR000), 2 for usage errors (argparse).  The same
pass is reachable as ``repro-experiments lint`` so one console entry
point covers running experiments and checking the invariants they rely
on.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.context import FileContext
from repro.lint.findings import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    PARSE_ERROR_ID,
    Finding,
    sort_findings,
)
from repro.lint.rules import AST_RULES, rule_table

__all__ = ["build_parser", "iter_python_files", "lint_file", "lint_paths", "main"]

#: Directory names never descended into: caches and VCS internals hold
#: generated or foreign code the invariants do not govern.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".ruff_cache", ".pytest_cache", ".venv"})


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if set(candidate.parts) & SKIP_DIRS:
                continue
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def lint_file(path: str | Path, *, disabled: frozenset[str] = frozenset()) -> list[Finding]:
    """All unsuppressed findings for one file."""
    path = Path(path)
    try:
        ctx = FileContext.parse(path)
    except (SyntaxError, UnicodeDecodeError, OSError) as exc:
        line = getattr(exc, "lineno", 1) or 1
        return [
            Finding(
                rule=PARSE_ERROR_ID,
                path=str(path),
                line=line,
                col=1,
                message=f"file cannot be parsed ({exc.__class__.__name__}: {exc})",
            )
        ]
    findings = []
    for rule in AST_RULES:
        if rule.rule_id in disabled:
            continue
        for finding in rule.check(ctx):
            if not ctx.pragmas.suppresses(finding.rule, finding.line):
                findings.append(finding)
    return findings


def lint_paths(
    paths: Iterable[str | Path],
    *,
    disabled: frozenset[str] = frozenset(),
    registry: bool = True,
) -> list[Finding]:
    """Lint whole trees; optionally run the RPR006 registry check."""
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, disabled=disabled))
    if registry and "RPR006" not in disabled:
        from repro.lint.registry_check import check_registries

        findings.extend(check_registries())
    return sort_findings(findings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="AST-based determinism & store-protocol linter (rules RPR001-RPR006).",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--disable",
        default="",
        metavar="IDS",
        help="comma-separated rule IDs to skip (e.g. RPR005,RPR006)",
    )
    parser.add_argument(
        "--no-registry",
        action="store_true",
        help="skip the RPR006 live registry consistency check",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="report as canonical JSON instead of compiler-style lines",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule IDs and titles, then exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule_id, title in rule_table():
            print(f"{rule_id}  {title}")
        return EXIT_CLEAN
    if not args.paths:
        build_parser().error("provide at least one path to lint (or --list-rules)")
    disabled = frozenset(
        part.strip() for part in args.disable.split(",") if part.strip()
    )
    findings = lint_paths(args.paths, disabled=disabled, registry=not args.no_registry)
    if args.json:
        from repro.store.digest import canonical_json

        print(canonical_json({"findings": [f.to_dict() for f in findings]}))
    else:
        for finding in findings:
            print(finding.render())
        n = len(findings)
        print(f"{n} finding(s)" if n else "clean: no findings")
    return EXIT_FINDINGS if findings else EXIT_CLEAN
