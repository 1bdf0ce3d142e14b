"""End-to-end smoke tests: every experiment passes at quick scale.

These are the library's reproduction gate: each experiment regenerates
one paper artifact and asserts its claims; a FAIL here means the
reproduction no longer exhibits the paper's shape.
The cheap ones run in the default suite; the heavier ones are marked
slow (they still run in CI-style full runs, just not in -m "not slow").

The experiments that read only per-trial summaries (``STORED``) run
their points through store-backed sweeps, so their numbers are pinned
like the golden records: the sha256 of each one's canonical-JSON series
and claim measurements at quick scale and seed 0, keyed by
:data:`repro.store.NUMERICS_VERSION` and the fingerprint of
``tests/scenario/test_golden_records.py``.  To re-pin, paste the output
of ``PYTHONPATH=src python -m tests.experiments.test_experiments_quick``.
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest

import repro.scenario.runner as scenario_runner_mod
from repro.experiments.base import ExperimentResult, get_experiment
from repro.store import NUMERICS_VERSION, ResultStore, canonical_json

from tests.scenario.test_golden_records import fingerprint

FAST = ["E1", "E2", "E7", "E8", "E11", "E16"]
HEAVY = ["E3", "E4", "E5", "E6", "E9", "E10", "E12", "E13", "E14", "E15"]
STORED = ["E3", "E4", "E5", "E6", "E9", "E10", "E14", "E15"]

#: NUMERICS_VERSION -> the fingerprint the pins were taken under, and the
#: sha256 of each stored experiment's numbers (see :func:`numbers_sha256`).
PINS: dict[int, dict] = {
    2: {
        "fingerprint": {
            "machine": "x86_64",
            "numpy": "2.4.6",
            "numpy_simd": ["AVX512_ICL", "AVX512_SPR", "X86_V3", "X86_V4"],
            "scipy": "1.17.1",
        },
        "numbers": {
            "E3": "3a6ae6d9d1e16369b1371a149ad674dc36ffa38ffcf395fed2716a54cf0d735d",
            "E4": "013c3b466ef4ee8f69bb542da7e2c1ded68bfd957acf7afb4c4ff1371c5f9a15",
            "E5": "9e0dcc7508387bd757049174f61372733ff9c0cc23acb2b1c0b85b3c0a244003",
            "E6": "9e44b165167e9f53d1a06110b81c47095d95ffcf70c19caefda93bd64fc3aab9",
            "E9": "14fc881de364b2007d7d902ad7f711fc21526c1959573d040ab923c72b81ced7",
            "E10": "6d9a2acf6a5a642f71a692906f16d42c9ab8176ba608acf0eaf81e4a2c5b7f9e",
            "E14": "29a85df11b67aab9709dbac9836435760787d9b369a49168f5eb3126a1087382",
            "E15": "148cc65f1251f11e809b720d7bfa4ccf316becb2f247c01d4aa9bcf78f165a1c",
        },
    },
}


@functools.cache
def quick_result(eid: str) -> ExperimentResult:
    """One quick-scale, seed-0 run per experiment, shared by the tests."""
    return get_experiment(eid)(scale="quick", seed=0)


def numbers_sha256(result: ExperimentResult) -> str:
    """sha256 of a result's series and claim measurements as canonical JSON
    (E4 and E14 report no series; their claims carry their numbers)."""
    numbers = {
        "series": {name: arr.tolist() for name, arr in result.series.items()},
        "measured": [claim.measured for claim in result.claims],
    }
    return hashlib.sha256(canonical_json(numbers).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("eid", FAST)
def test_fast_experiment_passes(eid):
    result = get_experiment(eid)(scale="quick", seed=0)
    assert result.all_ok, result.report()


@pytest.mark.slow
@pytest.mark.parametrize("eid", HEAVY)
def test_heavy_experiment_passes(eid):
    result = quick_result(eid)
    assert result.all_ok, result.report()


@pytest.mark.slow
@pytest.mark.parametrize("eid", STORED)
def test_stored_experiment_numbers_match_their_pin(eid):
    pins = PINS.get(NUMERICS_VERSION)
    assert pins is not None, (
        f"no experiment pins for NUMERICS_VERSION={NUMERICS_VERSION}; re-pin with "
        "`PYTHONPATH=src python -m tests.experiments.test_experiments_quick`"
    )
    here = fingerprint()
    if here != pins["fingerprint"]:
        pytest.skip(
            f"pins for NUMERICS_VERSION={NUMERICS_VERSION} were taken under "
            f"{pins['fingerprint']}; this machine is {here}"
        )
    assert numbers_sha256(quick_result(eid)) == pins["numbers"][eid], (
        f"{eid}: its numbers changed under NUMERICS_VERSION={NUMERICS_VERSION}"
    )


def test_rerun_over_the_same_store_computes_nothing(tmp_path, monkeypatch):
    """With ``$REPRO_STORE`` set, E5 commits each of its four points (three
    eps values and the Ant comparison) and a second run reads them back."""
    monkeypatch.setenv("REPRO_STORE", str(tmp_path))
    real = scenario_runner_mod.run_trials
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scenario_runner_mod, "run_trials", counted)
    first = get_experiment("E5")(scale="quick", seed=0)
    assert len(calls) == 4
    assert len(list(ResultStore(tmp_path).iter_records())) == 4
    second = get_experiment("E5")(scale="quick", seed=0)
    assert len(calls) == 4
    assert second.report() == first.report()


def test_reports_render(capsys):
    result = get_experiment("E1")(scale="quick", seed=0)
    text = result.report()
    assert "E1" in text and "overall" in text


def main() -> None:
    """Print this machine's pins for the current NUMERICS_VERSION."""
    numbers = {eid: numbers_sha256(quick_result(eid)) for eid in STORED}
    pins = {"fingerprint": fingerprint(), "numbers": numbers}
    print(f"PINS = {{{NUMERICS_VERSION}: {json.dumps(pins, indent=4, sort_keys=True)}}}")


if __name__ == "__main__":
    main()
