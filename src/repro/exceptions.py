"""Typed exceptions raised by the library.

Every invalid-configuration path raises a subclass of :class:`ReproError`
so callers can catch library errors without masking programming bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ReproError, ValueError):
    """An algorithm / environment / experiment was configured inconsistently.

    Examples: negative demand, ``gamma`` outside the range required by
    Theorem 3.1, phase length that is not an even number of rounds.
    """


class AssumptionViolation(ConfigurationError):
    """A paper assumption (Assumptions 2.1 / 2.2) does not hold.

    Raised by the strict validators; most constructors accept
    ``strict=False`` to allow deliberately out-of-model experiments
    (e.g. the trivial-algorithm divergence demo uses ``d = n/4``).
    """


class SimulationError(ReproError, RuntimeError):
    """The simulation reached an internally inconsistent state.

    This always indicates a bug (e.g. loads not summing to at most ``n``),
    never a user error; it is raised by internal invariant checks.
    """


class SweepInterrupted(ReproError, RuntimeError):
    """A store-backed sweep stopped before computing every point.

    Raised by ``sweep_scenario(..., max_new_points=N)`` once the budget
    of newly computed points is exhausted.  Completed points are already
    committed to the store, so re-running the same sweep continues from
    where it stopped — this is how the interrupted-sweep CI smoke
    simulates (deterministically) a sweep killed mid-run.
    """


class SchedulerError(ReproError, RuntimeError):
    """The distributed sweep scheduler could not complete a grid.

    Raised when a grid directory is missing or ambiguous, when every
    worker of an orchestrated run died before the frontier drained, or
    when results are collected for a grid with uncommitted points.
    Committed points are never lost: re-attaching workers to the same
    store resumes exactly where the frontier stopped.
    """


class ServiceError(ReproError, RuntimeError):
    """The scenario service could not accept or serve a request.

    Raised for service-level conditions (as opposed to malformed
    requests, which are :class:`ConfigurationError`): the HTTP layer
    maps subclasses to response codes.
    """


class ServiceBusy(ServiceError):
    """The scenario service's queue is full — back pressure.

    Raised by ``ScenarioService.submit`` when accepting the request
    would exceed ``max_pending``; the HTTP layer answers 503 so clients
    retry later instead of piling work onto an overloaded store.
    Already-committed digests are never refused (cache hits cost no
    queue slot).
    """


class AnalysisError(ReproError, ValueError):
    """An analysis routine received data it cannot interpret.

    Example: asking for steady-state closeness of a trace shorter than the
    requested burn-in.
    """
