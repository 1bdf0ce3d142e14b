"""repro.serve — async scenario service over the content-addressed store.

The serving story for the content-addressed :class:`~repro.store.ResultStore`:
an asyncio HTTP front end (stdlib only) where ``POST /scenarios`` submits a
:class:`ScenarioRequest` (a ScenarioSpec JSON + run params), keyed by the
same sweep-point digest the batch paths use — committed results are served
immediately from the store, new work is enqueued behind a worker pool that
computes each request's :class:`~repro.scenario.PointJob` (the job a sweep
or a grid worker runs for the same point) under a lease and commits its
record, and duplicate in-flight requests coalesce onto one computation.

Layers (each importable without the ones above it):

* :mod:`repro.serve.request` — the request protocol: normalization and
  the request's point job, whose identity is shared with
  ``sweep_scenario`` / ``repro.sched`` (pure data, no I/O).
* :mod:`repro.serve.service` — :class:`ScenarioService`: queue, worker
  pool, lease-based crash reclaim, dedup counters, back pressure.
* :mod:`repro.serve.http` — the asyncio HTTP layer: request parsing,
  canonical-JSON response bodies, ``run_server`` / ``BackgroundServer``.

CLI entry point: ``repro-experiments serve <store-dir> [--workers N --port P]``.
"""

from repro.serve.http import BackgroundServer, record_body, run_server
from repro.serve.request import ScenarioRequest
from repro.serve.service import ScenarioService, ServiceStatus

__all__ = [
    "BackgroundServer",
    "ScenarioRequest",
    "ScenarioService",
    "ServiceStatus",
    "record_body",
    "run_server",
]
