"""Store-backed distributed sweep scheduler: leased grid points, crash recovery.

The experiments of the paper are parameter sweeps, and
:func:`~repro.scenario.sweep_scenario` already made single-axis sweeps
resumable through the content-addressed :mod:`repro.store`.  This
package scales that idea out:

* :mod:`repro.sched.grid` — :class:`GridSpec` generalizes sweeps to
  multi-parameter cross products whose points are content-addressed
  (digest-compatible with classic sweeps on one axis), turning a grid
  into a resumable *frontier set* rather than a work list.
* :mod:`repro.sched.leases` — crash-tolerant exclusive claims:
  ``O_EXCL`` lease files under the store, mtime heartbeats, and
  TTL-based reclaim so a SIGKILL'd worker's points are re-leased.
  Double execution after a reclaim is *safe* because commits are
  idempotent digest-keyed records with deterministic bytes.
* :mod:`repro.sched.worker` — the claim → compute → commit → release
  loop over point jobs (:class:`~repro.scenario.PointJob`, exactly as
  in a store-backed ``sweep_scenario``): a grid worker drains a grid's
  points through it, a :mod:`repro.serve` worker one request's job.
* :mod:`repro.sched.scheduler` — grid persistence (``grid.json`` in the
  store), frontier status, the N-process orchestrator
  (:func:`run_grid`), and result collection (:func:`collect_grid`).

Quick use::

    from repro.scenario import ScenarioSpec
    from repro.sched import GridSpec, run_grid, collect_grid

    grid = GridSpec(
        spec=ScenarioSpec.from_json(open("scenario.json").read()),
        axes=[
            {"parameter": "algorithm.gamma", "values": [0.01, 0.02, 0.04]},
            {"parameter": "feedback.lam", "values": [20.0, 40.0]},
        ],
        trials=4,
    )
    run_grid("results/grid", grid, workers=4)
    result = collect_grid("results/grid", grid)
    print(result.series().reshape(result.shape))

Multiple machines sharing a filesystem cooperate with no extra
configuration: each runs ``repro-experiments sched work <dir>`` against
the same store directory.
"""

from repro.sched.grid import GridAxis, GridSpec
from repro.sched.leases import DEFAULT_LEASE_TTL, Lease, LeaseManager
from repro.sched.scheduler import (
    GRID_MANIFEST,
    GridResult,
    collect_grid,
    format_status,
    grid_status,
    init_grid,
    load_grid,
    run_grid,
)
from repro.sched.worker import WorkerStats, run_worker

__all__ = [
    "DEFAULT_LEASE_TTL",
    "GRID_MANIFEST",
    "GridAxis",
    "GridResult",
    "GridSpec",
    "Lease",
    "LeaseManager",
    "WorkerStats",
    "collect_grid",
    "format_status",
    "grid_status",
    "init_grid",
    "load_grid",
    "run_grid",
    "run_worker",
]
