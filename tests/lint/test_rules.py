"""Good/bad fixture pairs for every AST rule (RPR001-RPR005).

Each rule gets at least one source that must be flagged and one minimal
edit of the same source that must be clean, so a rule can neither go
blind (false negatives on its canonical violation) nor rabid (false
positives on the sanctioned idiom next door).
"""

from __future__ import annotations

from tests.lint.conftest import rules_of


# ----------------------------------------------------------------------
# RPR001 — global-state RNG


def test_rpr001_flags_np_random_module_call(lint_source):
    findings = lint_source(
        """
        import numpy as np

        def draw():
            return np.random.random(3)
        """
    )
    assert rules_of(findings) == {"RPR001"}
    assert "numpy.random.random" in findings[0].message


def test_rpr001_flags_stdlib_random_import_and_from_import(lint_source):
    assert rules_of(lint_source("import random\n")) == {"RPR001"}
    assert rules_of(lint_source("from random import choice\n")) == {"RPR001"}


def test_rpr001_flags_unseeded_default_rng(lint_source):
    src = "import numpy as np\nrng = np.random.default_rng({})\n"
    assert rules_of(lint_source(src.format(""))) == {"RPR001"}
    assert rules_of(lint_source(src.format("None"))) == {"RPR001"}
    assert lint_source(src.format("42")) == []
    assert lint_source(src.format("seed=7")) == []


def test_rpr001_allows_explicit_state_constructors(lint_source):
    findings = lint_source(
        """
        import numpy as np

        ss = np.random.SeedSequence(7)
        rng = np.random.Generator(np.random.PCG64(ss))
        """
    )
    assert findings == []


def test_rpr001_sees_through_module_aliases(lint_source):
    findings = lint_source(
        """
        import numpy.random as npr

        x = npr.rand()
        """
    )
    assert rules_of(findings) == {"RPR001"}


def test_rpr001_exempts_the_rng_module(lint_source):
    src = "import numpy as np\nx = np.random.random()\n"
    assert rules_of(lint_source(src)) == {"RPR001"}
    assert lint_source(src, rel="repro/util/rng.py") == []


def test_rpr001_real_batched_modules_pass_without_exemption():
    # The batched engine and its block sampler derive every draw from
    # per-lane Generators (the serial engine's SeedSequence spawns) and
    # replay their streams explicitly, so both real modules must lint
    # clean with no exemption — a regression to global-RNG idiom in
    # either trips RPR001 here before CI does.
    from repro.lint.cli import lint_file

    from tests.lint.conftest import REPO_ROOT

    for rel in ("src/repro/sim/batched.py", "src/repro/util/rng_block.py"):
        path = REPO_ROOT / rel
        assert path.is_file(), rel
        assert [f for f in lint_file(path) if f.rule == "RPR001"] == [], rel


# ----------------------------------------------------------------------
# RPR002 — wall-clock quarantine


def test_rpr002_flags_wall_clock_in_quarantined_module(lint_source):
    src = "import time\nSTAMP = time.time()\n"
    for rel in ("repro/store/digest.py", "repro/store/records.py", "repro/sched/grid.py"):
        assert rules_of(lint_source(src, rel=rel)) == {"RPR002"}, rel


def test_rpr002_quarantine_covers_the_whole_serve_package(lint_source):
    # Response bodies are byte-compared by the service smoke, so every
    # module under repro/serve/ is quarantined — including new ones.
    src = "import time\nSTAMP = time.time()\n"
    for rel in ("repro/serve/http.py", "repro/serve/future_module.py"):
        assert rules_of(lint_source(src, rel=rel)) == {"RPR002"}, rel


def test_rpr002_quarantine_covers_datetime_now(lint_source):
    findings = lint_source(
        """
        from datetime import datetime

        WHEN = datetime.now()
        """,
        rel="repro/sched/leases.py",
    )
    assert rules_of(findings) == {"RPR002"}


def test_rpr002_ignores_wall_clock_outside_quarantine_and_manifests(lint_source):
    findings = lint_source(
        """
        import time

        def elapsed(t0):
            return time.time() - t0
        """
    )
    assert findings == []


def test_rpr002_flags_wall_clock_inside_manifest_dict_anywhere(lint_source):
    # The exact shape of the bug this rule was written against: a
    # timestamp smuggled into record meta (see test_self_lint.py for the
    # verbatim regression).
    findings = lint_source(
        """
        import time

        def meta():
            return {"kind": "sweep_point", "created_unix": time.time()}
        """
    )
    assert rules_of(findings) == {"RPR002"}
    assert "manifest" in findings[0].message


def test_rpr002_allows_wall_clock_in_plain_dicts(lint_source):
    findings = lint_source(
        """
        import time

        def stats():
            return {"elapsed_s": time.time()}
        """
    )
    assert findings == []


# ----------------------------------------------------------------------
# RPR003 — canonical JSON


def test_rpr003_flags_uncanonical_dumps_in_store_scope(lint_source):
    assert rules_of(
        lint_source("import json\ns = json.dumps({'a': 1})\n", rel="repro/store/x.py")
    ) == {"RPR003"}
    # sort_keys alone is not enough: whitespace must be pinned too.
    assert rules_of(
        lint_source(
            "import json\ns = json.dumps({'a': 1}, sort_keys=True)\n",
            rel="repro/sched/x.py",
        )
    ) == {"RPR003"}


def test_rpr003_accepts_canonical_and_pinned_indent_forms(lint_source):
    canonical = 'import json\ns = json.dumps(d, sort_keys=True, separators=(",", ":"))\n'
    pinned = "import json\ns = json.dumps(d, sort_keys=True, indent=2)\n"
    for src in (canonical, pinned):
        assert lint_source(src, rel="repro/store/x.py") == []


def test_rpr003_scope_is_store_sched_serve_and_cli_only(lint_source):
    src = "import json\ns = json.dumps({'a': 1})\n"
    assert lint_source(src, rel="scratch/tool.py") == []
    assert rules_of(lint_source(src, rel="repro/experiments/cli.py")) == {"RPR003"}
    # The service writes JSON response bodies that CI byte-compares, so
    # repro/serve/ is in scope alongside store and sched.
    assert rules_of(lint_source(src, rel="repro/serve/x.py")) == {"RPR003"}


# ----------------------------------------------------------------------
# RPR004 — atomic writes


def test_rpr004_flags_direct_writes_under_store_packages(lint_source):
    assert rules_of(
        lint_source("f = open('out.json', 'w')\n", rel="repro/store/newmod.py")
    ) == {"RPR004"}
    assert rules_of(
        lint_source("path.write_text('x')\n", rel="repro/sched/newmod.py")
    ) == {"RPR004"}
    assert rules_of(
        lint_source("f = open('out.json', 'w')\n", rel="repro/serve/newmod.py")
    ) == {"RPR004"}


def test_rpr004_allows_reads_and_out_of_scope_writes(lint_source):
    assert lint_source("f = open('in.json')\n", rel="repro/store/newmod.py") == []
    assert lint_source("f = open('in.json', 'rb')\n", rel="repro/store/newmod.py") == []
    assert lint_source("f = open('out.json', 'w')\n", rel="scratch/tool.py") == []


def test_rpr004_exempts_the_atomic_write_helper_modules(lint_source):
    src = "f = open('out.bin', 'wb')\n"
    for rel in (
        "repro/store/records.py",
        "repro/store/locks.py",
    ):
        assert lint_source(src, rel=rel) == [], rel


# ----------------------------------------------------------------------
# RPR005 — float equality


def test_rpr005_flags_float_comparisons(lint_source):
    assert rules_of(lint_source("ok = x == 1.5\n")) == {"RPR005"}
    assert rules_of(lint_source("ok = x != -3.5\n")) == {"RPR005"}
    assert rules_of(lint_source("ok = a == b * 2.0\n")) == {"RPR005"}


def test_rpr005_allows_zero_sentinel_and_int_compares(lint_source):
    assert lint_source("ok = x == 0.0\n") == []
    assert lint_source("ok = x == 1\n") == []
    assert lint_source("ok = x < 1.5\n") == []


# ----------------------------------------------------------------------
# RPR002 — the obs clock quarantine (monotonic calls included)


def test_rpr002_obs_package_bans_monotonic_clocks_too(lint_source):
    for call in ("time.perf_counter()", "time.monotonic()", "time.time()"):
        findings = lint_source(f"import time\nt = {call}\n", rel="repro/obs/newmod.py")
        assert rules_of(findings) == {"RPR002"}, call
        assert "repro.obs.clock" in findings[0].message


def test_rpr002_obs_clock_module_is_the_sanctioned_seam(lint_source):
    src = "import time\nt0 = time.perf_counter()\nw = time.time()\n"
    assert lint_source(src, rel="repro/obs/clock.py") == []


def test_rpr002_monotonic_stays_legal_outside_obs(lint_source):
    # Only wall clocks are quarantined elsewhere; perf_counter in a
    # scratch tool (or a benchmark) is not obs code.
    assert lint_source("import time\nt = time.perf_counter()\n", rel="scratch/tool.py") == []


# ----------------------------------------------------------------------
# RPR007 — obs isolation from digests/manifests/records


def test_rpr007_flags_obs_import_in_store_modules(lint_source):
    for src in (
        "from repro.obs import get_registry\n",
        "import repro.obs\n",
        "from repro.obs.metrics import MetricsRegistry\n",
    ):
        findings = lint_source(src, rel="repro/store/newmod.py")
        assert rules_of(findings) == {"RPR007"}, src
        assert "read-only on determinism" in findings[0].message


def test_rpr007_quarantines_the_record_builders(lint_source):
    src = "from repro.obs import monotonic\n"
    for rel in (
        "repro/sched/grid.py",
        "repro/serve/request.py",
        "repro/scenario/spec.py",
        "repro/scenario/runner.py",
    ):
        assert rules_of(lint_source(src, rel=rel)) == {"RPR007"}, rel


def test_rpr007_flags_obs_values_flowing_into_sinks(lint_source):
    findings = lint_source(
        """
        from repro.obs import monotonic

        def commit(store, arrays, meta):
            store.write_record(digest, arrays, {"took": monotonic()})
        """
    )
    assert rules_of(findings) == {"RPR007"}
    assert "write_record" in findings[0].message

    findings = lint_source(
        """
        from repro.obs import wall
        from repro.store import digest_hex

        token = digest_hex({"at": wall()})
        """
    )
    assert rules_of(findings) == {"RPR007"}


def test_rpr007_allows_obs_next_to_sinks_but_not_inside(lint_source):
    # The sanctioned idiom: measure around the sink call, never through it.
    findings = lint_source(
        """
        from repro.obs import monotonic

        def commit(store, digest, arrays, meta):
            t0 = monotonic()
            store.write_record(digest, arrays, meta)
            return monotonic() - t0
        """
    )
    assert findings == []


def test_rpr007_ignores_out_of_scope_imports_and_plain_calls(lint_source):
    assert lint_source("from repro.obs import get_registry\n", rel="scratch/tool.py") == []
    assert lint_source("from repro.obs import span\n", rel="repro/sim/newmod.py") == []
