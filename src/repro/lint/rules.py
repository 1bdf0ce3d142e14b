"""The AST rules: determinism and store-protocol invariants, statically.

Each rule is a class with a ``rule_id``, a one-line ``title``, and a
``check(ctx)`` generator over :class:`~repro.lint.findings.Finding`.
The rules encode the conventions the store/sched guarantees rest on
(see the README's "Correctness tooling" table for the invariant each
one protects):

* **RPR001** — no global-state RNG outside ``repro/util/rng.py``;
* **RPR002** — wall-clock quarantine in digest/record-critical modules
  and manifest-ish dict literals;
* **RPR003** — ``json.dumps`` in store/sched/CLI-JSON paths must be
  canonical (``sort_keys=True`` + pinned formatting);
* **RPR004** — no direct file writes under store packages outside the
  atomic-write helper modules;
* **RPR005** — no float ``==``/``!=`` against computed expressions;
* **RPR007** — observability isolation: ``repro.obs`` never reaches
  digest/manifest/record construction paths.

RPR006 (registry/spec consistency) is not an AST rule — it imports the
registries and checks them live; see :mod:`repro.lint.registry_check`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding

__all__ = ["AST_RULES", "Rule", "rule_table"]


class Rule:
    """Base class: subclasses define ``rule_id``, ``title``, ``check``."""

    rule_id: str = ""
    title: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:  # pragma: no cover - interface
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


# ----------------------------------------------------------------------
# RPR001 — global-state RNG


class GlobalRngRule(Rule):
    """Randomness must flow through explicit, seeded generators.

    Bit-identical resume and byte-diffable stores require every random
    draw to come from a ``numpy.random.Generator`` threaded as a
    parameter (or derived from a ``SeedSequence``) — never from the
    process-global numpy state, the stdlib ``random`` module, or an
    OS-entropy ``default_rng()``.  Only :mod:`repro.util.rng`, the
    sanctioned seed-management module, is exempt.

    Explicit-state constructions pass without exemption: the counting
    engine (:mod:`repro.sim.batched`) derives one per-lane substream via
    each lane's ``RngFactory.stream("counting")`` — the
    ``SeedSequence`` spawn scheme of :mod:`repro.util.rng` — and
    :mod:`repro.util.rng_block` replays draws from those ``Generator``
    objects, so neither opens a new global-RNG surface (pinned by
    ``tests/lint/test_rules.py``).
    """

    rule_id = "RPR001"
    title = "no global-state RNG outside repro/util/rng.py"

    EXEMPT_MODULES = ("repro/util/rng.py",)

    #: ``numpy.random`` attributes that are explicit-state constructors,
    #: not draws from the hidden global ``RandomState``.
    ALLOWED_NP_RANDOM = frozenset(
        {
            "Generator",
            "SeedSequence",
            "BitGenerator",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
            "MT19937",
            "default_rng",
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_module(*self.EXEMPT_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(ctx, node)
            elif isinstance(node, ast.Attribute):
                yield from self._check_attribute(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_import(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            assert isinstance(node, ast.ImportFrom)
            if node.level:
                return
            modules = [node.module or ""]
        for module in modules:
            if module == "random" or module.startswith("random."):
                yield self.finding(
                    ctx,
                    node,
                    "stdlib 'random' draws from hidden global state; thread a "
                    "numpy.random.Generator (see repro.util.rng) instead",
                )

    def _check_attribute(self, ctx: FileContext, node: ast.Attribute) -> Iterator[Finding]:
        qname = ctx.resolve(node)
        if qname is None or not qname.startswith("numpy.random."):
            return
        leaf = qname.removeprefix("numpy.random.").split(".")[0]
        if leaf not in self.ALLOWED_NP_RANDOM:
            yield self.finding(
                ctx,
                node,
                f"'{qname}' uses numpy's global RandomState; draw from a "
                "Generator threaded as a parameter or SeedSequence-derived "
                "(repro.util.rng.as_generator)",
            )

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        qname = ctx.resolve(node.func)
        if qname != "numpy.random.default_rng":
            return
        seeded = bool(node.keywords) or (
            node.args and not (isinstance(node.args[0], ast.Constant) and node.args[0].value is None)
        )
        if not seeded:
            yield self.finding(
                ctx,
                node,
                "argless default_rng() seeds from OS entropy — results become "
                "unreproducible; pass an explicit seed or SeedSequence",
            )


# ----------------------------------------------------------------------
# RPR002 — wall-clock quarantine


class WallClockRule(Rule):
    """Wall-clock must never reach digests, records, or manifests.

    A timestamp inside anything content-addressed breaks byte-identity:
    two runs of the same point would produce different record bytes, and
    the store's resume/chaos guarantees are checked by ``diff``.  The
    digest/record/grid modules — and the whole ``repro/serve/`` package,
    whose response bodies are byte-compared — are quarantined outright
    (lock/lease heartbeat code carries explicit
    ``# repro-lint: disable=RPR002`` pragmas — mtime freshness
    legitimately needs the clock); elsewhere,
    a wall-clock call inside a dict literal with manifest-ish keys
    (``kind`` / ``digest`` / ``meta``) is flagged wherever it appears.
    """

    rule_id = "RPR002"
    title = "wall-clock quarantine (digest/record/manifest code)"

    QUARANTINED_MODULES = (
        "repro/store/digest.py",
        "repro/store/records.py",
        "repro/store/locks.py",
        "repro/sched/grid.py",
        "repro/sched/leases.py",
    )
    #: Whole packages under quarantine: every response body the scenario
    #: service emits is digest-keyed canonical JSON, so a timestamp
    #: anywhere in ``repro/serve/`` could leak into a byte-compared
    #: response or a committed manifest.
    QUARANTINED_PACKAGES = ("repro/serve/",)

    #: The observability package is quarantined *harder*: every clock
    #: read — wall AND monotonic — must flow through the one sanctioned
    #: seam, ``repro/obs/clock.py`` (the clock analogue of
    #: ``repro/util/rng.py``), so instrumented timings stay injectable
    #: and trace files can be made deterministic with a FakeClock.
    OBS_PACKAGES = ("repro/obs/",)
    SANCTIONED_MODULES = ("repro/obs/clock.py",)

    BANNED_CALLS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    #: Additionally banned inside ``repro/obs/`` (outside clock.py).
    MONOTONIC_CALLS = frozenset(
        {
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
        }
    )

    MANIFEST_KEYS = frozenset({"kind", "digest", "meta"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_module(*self.SANCTIONED_MODULES):
            return
        in_obs = ctx.in_package(*self.OBS_PACKAGES)
        quarantined = (
            ctx.in_module(*self.QUARANTINED_MODULES)
            or ctx.in_package(*self.QUARANTINED_PACKAGES)
            or in_obs
        )
        banned = self.BANNED_CALLS | self.MONOTONIC_CALLS if in_obs else self.BANNED_CALLS
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qname = ctx.resolve(node.func)
            if qname not in banned:
                continue
            if in_obs:
                yield self.finding(
                    ctx,
                    node,
                    f"clock call {qname}() inside repro/obs/; every clock read "
                    "must go through repro.obs.clock (the one sanctioned seam) "
                    "so timings stay injectable and traces deterministic",
                )
            elif quarantined:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock call {qname}() in a digest/record-critical "
                    "module; derive identity from content, not time (allowlist "
                    "heartbeat code with '# repro-lint: disable=RPR002')",
                )
            elif self._inside_manifest_dict(ctx, node):
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock call {qname}() inside a manifest-ish dict "
                    "literal (kind/digest/meta keys); timestamps in record "
                    "metadata break byte-identical stores — move it to a "
                    "non-digest sidecar",
                )

    def _inside_manifest_dict(self, ctx: FileContext, node: ast.Call) -> bool:
        for ancestor in ctx.ancestors(node):
            if not isinstance(ancestor, ast.Dict):
                continue
            keys = {
                key.value
                for key in ancestor.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
            if keys & self.MANIFEST_KEYS:
                return True
        return False


# ----------------------------------------------------------------------
# RPR003 — canonical JSON discipline


class CanonicalJsonRule(Rule):
    """Digest-bound and machine-compared JSON must serialize canonically.

    Anything under ``repro/store/``, ``repro/sched/`` or ``repro/serve/``
    (HTTP response bodies are byte-diffed by the service smoke) — and
    the CLI, whose ``--json`` output the CI smokes byte-diff — may only
    call
    ``json.dumps``/``json.dump`` with ``sort_keys=True`` and pinned
    formatting (an explicit ``separators=`` or ``indent=``), so key
    order and whitespace can never vary between runs.
    """

    rule_id = "RPR003"
    title = "canonical json.dumps in store/sched/CLI-JSON paths"

    SCOPED_PACKAGES = ("repro/store/", "repro/sched/", "repro/serve/", "repro/obs/")
    SCOPED_MODULES = ("repro/experiments/cli.py",)

    JSON_CALLS = frozenset({"json.dumps", "json.dump"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not (ctx.in_package(*self.SCOPED_PACKAGES) or ctx.in_module(*self.SCOPED_MODULES)):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qname = ctx.resolve(node.func)
            if qname not in self.JSON_CALLS:
                continue
            keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg is not None}
            sort_keys = keywords.get("sort_keys")
            sorted_ok = isinstance(sort_keys, ast.Constant) and sort_keys.value is True
            indent = keywords.get("indent")
            pinned = "separators" in keywords or (
                indent is not None
                and not (isinstance(indent, ast.Constant) and indent.value is None)
            )
            if not (sorted_ok and pinned):
                yield self.finding(
                    ctx,
                    node,
                    f"{qname} in a digest/store-comparable path must pass "
                    "sort_keys=True and pinned formatting (separators= or "
                    "indent=); prefer repro.store.canonical_json",
                )


# ----------------------------------------------------------------------
# RPR004 — atomic-write protocol


class AtomicWriteRule(Rule):
    """Store-layer writes must go through write-tmp-then-``os.replace``.

    A direct ``open(path, "w")`` under the store packages can be seen
    half-written by a concurrent reader or survive a crash as a corrupt
    record.  Only the sanctioned helper modules (``records.py``,
    ``locks.py``) implement raw writes; everything else must publish
    bytes through their atomic helpers.
    """

    rule_id = "RPR004"
    title = "atomic-write protocol under store/sched/serve packages"

    SCOPED_PACKAGES = ("repro/store/", "repro/sched/", "repro/serve/", "repro/obs/")
    HELPER_MODULES = (
        "repro/store/records.py",
        "repro/store/locks.py",
        # The tracer appends whole O_APPEND lines (the reclaim-log
        # protocol) — it is obs's sanctioned raw-write module.
        "repro/obs/trace.py",
    )

    WRITE_MODES = frozenset("wax+")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package(*self.SCOPED_PACKAGES) or ctx.in_module(*self.HELPER_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            yield from self._check_open(ctx, node)
            yield from self._check_path_write(ctx, node)

    def _check_open(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        is_open = (
            isinstance(func, ast.Name) and func.id == "open" and "open" not in ctx.imports
        ) or ctx.resolve(func) in {"io.open", "builtins.open"}
        if not is_open:
            return
        mode = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if mode is None:
            return  # default "r": reads are always safe
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            if not (set(mode.value) & self.WRITE_MODES):
                return
        yield self.finding(
            ctx,
            node,
            "direct open() for writing under a store package; publish bytes "
            "via repro.store.records.atomic_write_bytes (write-tmp-then-"
            "os.replace) so readers never see partial files",
        )

    def _check_path_write(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in {"write_text", "write_bytes"}:
            yield self.finding(
                ctx,
                node,
                f"Path.{func.attr}() under a store package writes in place; "
                "use repro.store.records.atomic_write_bytes instead",
            )


# ----------------------------------------------------------------------
# RPR005 — float equality


class FloatEqualityRule(Rule):
    """No ``==``/``!=`` between floats that were ever computed.

    Exact float comparison against a computed value encodes an
    assumption that two code paths round identically — the class of bug
    the kernel-equivalence suites compare with explicit tolerances.  The
    only sanctioned exact compare is the ``== 0.0`` sentinel (zero is
    preserved exactly by IEEE arithmetic entry points in this codebase);
    everything else should use ``np.isclose``/``math.isclose`` with an
    explicit tolerance.
    """

    rule_id = "RPR005"
    title = "no float ==/!= against computed expressions"

    ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.FloorDiv, ast.Mod)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._floaty(operand) for operand in operands):
                yield self.finding(
                    ctx,
                    node,
                    "exact ==/!= on float values; compare with an explicit "
                    "tolerance (np.isclose) — only the literal-0.0 sentinel "
                    "compare is exempt",
                )
                continue

    @classmethod
    def _floaty(cls, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            # The literal-zero sentinel (x == 0.0) is the allowlisted idiom.
            return isinstance(node.value, float) and node.value != 0.0
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            return cls._floaty(node.operand)
        if isinstance(node, ast.BinOp) and isinstance(node.op, cls.ARITH_OPS):
            return any(
                isinstance(sub, ast.Constant) and isinstance(sub.value, float)
                for sub in ast.walk(node)
            )
        return False


# ----------------------------------------------------------------------
# RPR007 — observability isolation


class ObsIsolationRule(Rule):
    """``repro.obs`` must never feed digests, manifests, or records.

    Observability is read-only on determinism: a metric value, clock
    reading, or trace artifact inside anything content-addressed would
    make record bytes depend on *how the run was observed* — breaking
    the null-overhead invariant (records byte-identical with tracing
    on, off, or disabled mid-run).  Two enforcement surfaces:

    * importing ``repro.obs`` at all is banned inside the modules that
      *construct* digests/manifests/records (the whole store layer, the
      point-job module ``repro.scenario.runner`` — the one record
      builder — and the grid/request identity modules) —
      instrumentation of those flows lives in their callers;
    * everywhere else, passing an obs-imported name into a digest/record
      sink call (``write_record``, ``point_record``,
      ``sweep_point_digest``, ``digest_hex``) is flagged.
    """

    rule_id = "RPR007"
    title = "repro.obs never feeds digest/manifest/record construction"

    #: Digest/manifest/record constructors: no ``repro.obs`` import here.
    QUARANTINED_PACKAGES = ("repro/store/",)
    QUARANTINED_MODULES = (
        "repro/sched/grid.py",
        "repro/serve/request.py",
        "repro/scenario/spec.py",
        "repro/scenario/runner.py",
    )

    #: Calls whose arguments become digests or record contents.
    SINK_CALLS = frozenset(
        {
            "write_record",
            "point_record",
            "sweep_point_digest",
            "digest_hex",
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_package("repro/obs/"):
            return  # obs handles its own values; sinks are banned here anyway
        quarantined = ctx.in_package(*self.QUARANTINED_PACKAGES) or ctx.in_module(
            *self.QUARANTINED_MODULES
        )
        for node in ast.walk(ctx.tree):
            if quarantined and isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_sink(ctx, node)

    def _check_import(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            assert isinstance(node, ast.ImportFrom)
            if node.level:
                return
            modules = [node.module or ""]
        for module in modules:
            if module == "repro.obs" or module.startswith("repro.obs."):
                yield self.finding(
                    ctx,
                    node,
                    "repro.obs imported in a digest/manifest/record "
                    "construction module; observability is read-only on "
                    "determinism — instrument the caller, not the "
                    "record builder",
                )

    def _check_sink(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        else:
            return
        if name not in self.SINK_CALLS:
            return
        arguments: list[ast.AST] = [*node.args]
        arguments.extend(kw.value for kw in node.keywords)
        for argument in arguments:
            for sub in ast.walk(argument):
                qname: str | None = None
                if isinstance(sub, ast.Name):
                    qname = ctx.imports.get(sub.id)
                elif isinstance(sub, ast.Attribute):
                    qname = ctx.resolve(sub)
                if qname is not None and (
                    qname == "repro.obs" or qname.startswith("repro.obs.")
                ):
                    yield self.finding(
                        ctx,
                        sub,
                        f"obs-derived value ({qname}) flows into digest/record "
                        f"sink {name}(); metric and trace values must never "
                        "reach content-addressed bytes",
                    )
                    break  # one finding per argument expression


# ----------------------------------------------------------------------

AST_RULES: tuple[Rule, ...] = (
    GlobalRngRule(),
    WallClockRule(),
    CanonicalJsonRule(),
    AtomicWriteRule(),
    FloatEqualityRule(),
    ObsIsolationRule(),
)


def rule_table() -> list[tuple[str, str]]:
    """``(rule_id, title)`` for every rule, AST and dynamic alike."""
    from repro.lint.registry_check import RegistryConsistencyCheck

    rows = [(rule.rule_id, rule.title) for rule in AST_RULES]
    rows.append((RegistryConsistencyCheck.rule_id, RegistryConsistencyCheck.title))
    return rows
