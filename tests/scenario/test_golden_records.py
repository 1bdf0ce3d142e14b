"""Golden-record pins: engine bits change only with a NUMERICS_VERSION bump.

Three short fixed scenarios are committed through a store-backed sweep
and the sha256 of each committed record (manifest plus payload bytes) is
compared with a pin.  Pins are keyed by
:data:`repro.store.NUMERICS_VERSION`, so a change to the counting
engine's output bits fails here unless it also bumps the version (and
re-pins) — which is what keeps new bits from landing under old digests.

Float bits also depend on the platform: numpy's SIMD loops
(``NPY_DISABLE_CPU_FEATURES`` changes what ``exp`` and ``log1p``
return), numpy's bundled BLAS, and scipy's quadrature nodes.  Each pin
therefore carries the fingerprint it was taken under; on a machine with
another fingerprint the test skips and says why.  To re-pin after a
deliberate numerics change, bump ``NUMERICS_VERSION`` and paste the
output of ``PYTHONPATH=src python -m tests.scenario.test_golden_records``.
"""

from __future__ import annotations

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro.scenario import ScenarioSpec, sweep_scenario
from repro.store import NUMERICS_VERSION, ResultStore
from repro.store.records import MANIFEST_SUFFIX, PAYLOAD_SUFFIX


def _spec(demand: dict, rounds: int) -> ScenarioSpec:
    return ScenarioSpec(
        algorithm={"name": "ant", "params": {"gamma": 0.025}},
        demand=demand,
        feedback={"name": "calibrated_sigmoid", "params": {"gamma_star": 0.01}},
        engine={"name": "counting"},
        rounds=rounds,
        seed=2020,
        run_params={"burn_in": rounds // 4},
        gamma_star=0.01,
    )


#: name -> (spec, swept gamma, trials)
SCENARIOS = {
    "colony_k8": (_spec({"name": "uniform", "params": {"n": 8000, "k": 8}}, 400), 0.02, 2),
    "uniform_k64": (_spec({"name": "uniform", "params": {"n": 64000, "k": 64}}, 200), 0.02, 1),
    "powerlaw_k1024": (
        _spec({"name": "powerlaw", "params": {"n": 102400, "k": 1024, "alpha": 1.0}}, 40),
        0.02,
        1,
    ),
}

#: NUMERICS_VERSION -> the fingerprint the pins were taken under, and the
#: sha256 of each scenario's committed record.
GOLDEN: dict[int, dict] = {
    2: {
        "fingerprint": {
            "machine": "x86_64",
            "numpy": "2.4.6",
            "numpy_simd": ["AVX512_ICL", "AVX512_SPR", "X86_V3", "X86_V4"],
            "scipy": "1.17.1",
        },
        "records": {
            "colony_k8": "bcf92c74dc4a98d26659bfa5e937159cf471a30baf6b81cb59e8763aa8edaa7e",
            "powerlaw_k1024": "4b10bc4ce2e86c8d56f638fff231c3ce191e47883a9a97aa3013a25b3e32a5d9",
            "uniform_k64": "fb59cbc8e7c004348b0f1a07728791dd230cad3b23ea8e4d726496989fe45d32",
        },
    },
}


def fingerprint() -> dict:
    """What besides the code decides the engine's float bits here."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "numpy_simd": sorted(t for t in umath.__cpu_dispatch__ if features.get(t)),
        "scipy": scipy.__version__,
    }


def record_sha256(name: str, root: Path) -> str:
    """Commit scenario ``name`` into a fresh store; hash its record."""
    spec, gamma, trials = SCENARIOS[name]
    sweep_scenario(spec, "algorithm.gamma", [gamma], trials=trials, store=root)
    store = ResultStore(root)
    [(digest, _)] = list(store.iter_records())
    directory = store.record_dir(digest)
    sha = hashlib.sha256()
    for suffix in (MANIFEST_SUFFIX, PAYLOAD_SUFFIX):
        sha.update((directory / f"{digest}{suffix}").read_bytes())
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_committed_record_matches_its_pin(name, tmp_path):
    pins = GOLDEN.get(NUMERICS_VERSION)
    assert pins is not None, (
        f"no golden pins for NUMERICS_VERSION={NUMERICS_VERSION}; "
        "re-pin with `PYTHONPATH=src python -m tests.scenario.test_golden_records`"
    )
    here = fingerprint()
    if here != pins["fingerprint"]:
        pytest.skip(
            f"pins for NUMERICS_VERSION={NUMERICS_VERSION} were taken under "
            f"{pins['fingerprint']}; this machine is {here}"
        )
    assert record_sha256(name, tmp_path) == pins["records"][name], (
        f"{name}: the engine's output bits changed under NUMERICS_VERSION="
        f"{NUMERICS_VERSION}; bump it (repro.store.digest) and re-pin"
    )


def main() -> None:
    """Print this machine's pins for the current NUMERICS_VERSION."""
    records = {}
    for name in sorted(SCENARIOS):
        with tempfile.TemporaryDirectory() as tmp:
            records[name] = record_sha256(name, Path(tmp))
    pins = {"fingerprint": fingerprint(), "records": records}
    print(f"GOLDEN = {{{NUMERICS_VERSION}: {json.dumps(pins, indent=4, sort_keys=True)}}}")


if __name__ == "__main__":
    main()
