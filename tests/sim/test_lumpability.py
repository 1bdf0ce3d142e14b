"""Exact lumpability: the counting engine's load chain is the agent chain
lumped by load vector.

Every ant reads its feedback independently, so ants on one task are
exchangeable and a phase's colony transition depends on the assignment
only through the load vector.  The counting engine
(:mod:`repro.sim.batched`) is built on that reduction: it draws pauses
and leaves as binomials over the loads and the idle pool's joins as one
multinomial over the join kernel's action distribution.  This module
checks the reduction exactly, as a distribution-based bisimulation
(Yang, Jansen and Zhang, arXiv:1706.10049) between the agent chain lumped
by load vector and the engine's load chain, at colonies small enough to
enumerate:

* The *agent law* drives the algorithm's own ``step`` for a colony of
  one ant, over every feedback row (for Precise Sigmoid: every count of
  LACK reads in a median window) and every scripted coin and join
  choice.  It weights each path by the feedback's ``lack_probabilities``
  and the algorithm's coin probabilities, and combines ants by
  convolution.  Ants share the loads the second window reads, so the
  combination is conditioned on the pause pattern: which ants ended
  the first window where.  It uses no binomial or multinomial formula.
* The *engine law* runs one phase of a one-lane
  :class:`~repro.sim.batched.BatchedCountingSimulator` whose generator
  records every ``binomial`` and ``multinomial`` call.  Draws that later
  draws depend on (the pauses, and the trivial algorithm's join
  attempts) are answered with each of their possible values in turn;
  the others are answered with a real draw, and the loads the engine
  reports must follow from the answers.  The recorded draws compose
  into the law.

Both laws of the loads must agree to 1e-12 at every round of one phase,
from every load vector of two demand vectors, for every round program
(Ant, Precise Sigmoid, trivial with and without rate-limited joins) and
every i.i.d. feedback model the engine accepts.  Switch counts are not
compared: the engine over-counts the switches of paused ants that leave
(see ROADMAP).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np
import pytest

from repro.core.ant import AntAlgorithm
from repro.core.constants import AlgorithmConstants
from repro.core.precise_sigmoid import PreciseSigmoidAlgorithm
from repro.core.trivial import TrivialAlgorithm
from repro.env.demands import DemandVector, PeriodicDemandSchedule
from repro.env.feedback import (
    ExactBinaryFeedback,
    FeedbackModel,
    SigmoidFeedback,
    ThresholdFeedback,
)
from repro.sim.counting import CountingSimulator
from repro.sim.engine import Simulator
from repro.types import IDLE, assignment_from_loads
from repro.util.mathx import enumerate_subset_join_probabilities, exact_join_probabilities

TOL = 1e-12

#: Coins well away from 0 and 1 (the paper's c_d = 19 makes leaves rare)
#: and a Precise Sigmoid median window of m = 4 reads.
CONSTANTS = AlgorithmConstants(c_s=7.0, c_d=2.0, c_chi=1.2)

#: name -> (algorithm factory, number of tasks).  Precise Sigmoid runs at
#: k = 2: its windows of m reads make k = 3 too many paths to enumerate.
ALGORITHMS = {
    "ant": (lambda: AntAlgorithm(gamma=1 / 16, constants=CONSTANTS), 3),
    "precise_sigmoid": (
        lambda: PreciseSigmoidAlgorithm(gamma=0.09, eps=0.8, constants=CONSTANTS),
        2,
    ),
    "trivial": (lambda: TrivialAlgorithm(), 3),
    "trivial_partial_join": (
        lambda: TrivialAlgorithm(leave_probability=0.6, join_probability=0.7),
        3,
    ),
}

#: Per task count: the colony size and two demand vectors.  Every load
#: vector of the colony is a start state; the sizes keep the module at a
#: few seconds.
COLONIES = {2: (5, ((2, 3), (1, 1))), 3: (4, ((1, 1, 1), (2, 1, 1)))}
N_MAX = max(n for n, _ in COLONIES.values())

#: The i.i.d. feedback models the counting engine accepts, by demand vector.
FEEDBACKS = {
    "sigmoid": lambda d: SigmoidFeedback(0.7),
    "sigmoid_per_task": lambda d: SigmoidFeedback(np.linspace(0.4, 1.6, d.size)),
    "exact": lambda d: ExactBinaryFeedback(),
    "threshold": lambda d: ThresholdFeedback(d + np.arange(d.size) - 1, d),
}


def _load_vectors(n: int, k: int):
    """Every load vector of ``k`` tasks with at most ``n`` workers."""
    for loads in itertools.product(range(n + 1), repeat=k):
        if sum(loads) <= n:
            yield np.array(loads, dtype=np.int64)


def _windows(alg) -> list[list[int]]:
    """A phase's rounds, split into windows: every read of a window sees
    the loads the previous window ended with, and ants move only at a
    window's last round (each path asserts the second half)."""
    if isinstance(alg, TrivialAlgorithm):
        return [[1]]
    if isinstance(alg, AntAlgorithm):
        return [[1], [2]]
    m = alg.m
    return [list(range(1, m + 1)), list(range(m + 1, 2 * m + 1))]


# ----------------------------------------------------------------------
# Agent law


class _ScriptedGenerator:
    """Answers an algorithm's random calls from a script of option indices.

    ``random`` stands for a uniform ``U`` that the algorithm compares with
    its coin probabilities (``U < p``).  The coin probabilities cut
    ``[0, 1)`` into intervals; each interval is one option, answered with
    its lower end and weighted by its length.  ``integers(low, high)``
    has one option per value, each weighted ``1 / (high - low)``.  Calls
    past the script take option 0; :attr:`calls` keeps every call's
    option weights so that each alternative can be replayed.
    """

    def __init__(self, script: tuple[int, ...], cuts: tuple[float, ...]) -> None:
        self.script = script
        self.lows = (0.0, *cuts)
        self.lengths = tuple(hi - lo for lo, hi in zip(self.lows, (*cuts, 1.0)))
        self.calls: list[tuple[float, ...]] = []

    def _option(self, weights: tuple[float, ...]) -> int:
        i = len(self.calls)
        self.calls.append(weights)
        return self.script[i] if i < len(self.script) else 0

    def random(self, size):
        if size == 0:
            return np.empty(0)
        assert size == 1, "one ant draws one coin at a time"
        return np.array([self.lows[self._option(self.lengths)]])

    def integers(self, low, high):
        (span,) = np.atleast_1d(np.asarray(high) - low)
        choice = self._option((1.0 / span,) * int(span))
        return np.full(np.shape(high), low + choice, dtype=np.int64)


def _copy(state):
    return replace(state, **{f.name: getattr(state, f.name).copy() for f in fields(state)})


def _key(state) -> tuple[bytes, ...]:
    return tuple(getattr(state, f.name).tobytes() for f in fields(state))


def _step_outcomes(alg, state, t: int, row: np.ndarray, cuts) -> list[tuple[float, object]]:
    """Every way one ``step`` of a one-ant colony can go: ``(weight, state)``."""
    outcomes = []
    scripts = [()]
    while scripts:
        script = scripts.pop()
        rng = _ScriptedGenerator(script, cuts)
        after = _copy(state)
        alg.step(after, t, row, rng)
        weight = 1.0
        for i, options in enumerate(rng.calls):
            if i < len(script):
                weight *= options[script[i]]
                continue
            weight *= options[0]
            taken = script + (0,) * (i - len(script))
            scripts += [taken + (alt,) for alt in range(1, len(options))]
        outcomes.append((weight, after))
    return outcomes


@dataclass(frozen=True)
class _Window:
    """One ant's paths through a window, one row per path.

    ``parent`` indexes the previous window's paths, ``reads`` counts the
    path's LACK reads per task, ``coins`` is the product of its coin and
    choice weights and ``actions`` its action after each round.
    """

    parent: np.ndarray
    reads: np.ndarray
    coins: np.ndarray
    actions: np.ndarray


@lru_cache(maxsize=None)
def _paths(name: str, start: int) -> tuple[_Window, ...]:
    """Every path of one ant that starts the phase on ``start``, per window."""
    make, k = ALGORITHMS[name]
    alg = make()
    coins = (
        getattr(alg, "pause_probability", 0.0),
        alg.leave_probability,
        getattr(alg, "join_probability", 0.0),
    )
    cuts = tuple(sorted({p for p in coins if 0.0 < p < 1.0}))
    memo: dict = {}

    def outcomes(state, t, row):
        # Paths whose reads share a prefix reach the same states.
        key = (_key(state), t, row.tobytes())
        if key not in memo:
            memo[key] = _step_outcomes(alg, state, t, row, cuts)
        return memo[key]

    entries = [(0, (), 1.0, (start,), alg.create_state(1, k, np.array([start])))]
    tables = []
    for window in _windows(alg):
        grown = []
        for parent, (_, _, _, before, state) in enumerate(entries):
            entering = before[-1]
            for reads in itertools.product(range(len(window) + 1), repeat=k):
                # A window's reads enter only through their count: read i
                # says LACK for the tasks with more than i LACK reads.
                branches = {_key(state): (1.0, state, ())}
                for i, t in enumerate(window):
                    row = (np.array(reads) > i)[np.newaxis, :]
                    merged: dict = {}
                    for weight, s, acts in branches.values():
                        for w, after in outcomes(s, t, row):
                            path = acts + (int(after.assignment[0]),)
                            key = (_key(after), path)
                            total = merged[key][0] if key in merged else 0.0
                            merged[key] = (total + weight * w, after, path)
                    branches = merged
                for weight, s, acts in branches.values():
                    assert all(a == entering for a in acts[:-1]), (name, window, acts)
                    grown.append((parent, reads, weight, acts, s))
        tables.append(
            _Window(
                parent=np.array([g[0] for g in grown]),
                reads=np.array([g[1] for g in grown], dtype=np.int64),
                coins=np.array([g[2] for g in grown]),
                actions=np.array([g[3] for g in grown], dtype=np.int64),
            )
        )
        entries = grown
    return tuple(tables)


def _read_law(p: np.ndarray, reads: int) -> np.ndarray:
    """``law[j, c]``: probability of ``c`` LACK reads of task ``j`` among
    ``reads`` independent reads, each LACK with probability ``p[j]``,
    built by convolving one read at a time."""
    law = np.ones((p.size, 1))
    for _ in range(reads):
        grown = np.zeros((p.size, law.shape[1] + 1))
        grown[:, :-1] += law * (1.0 - p)[:, np.newaxis]
        grown[:, 1:] += law * p[:, np.newaxis]
        law = grown
    return law


def _read_weights(law: np.ndarray, reads: np.ndarray) -> np.ndarray:
    return law[np.arange(law.shape[0]), reads].prod(axis=1)


def _action_law(actions: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Weights summed per action; index ``k`` is idle."""
    return np.bincount(np.where(actions == IDLE, k, actions), weights, minlength=k + 1)


def _convolve_ants(ant_laws, n: int, k: int) -> np.ndarray:
    """Law of the loads when ant ``i`` takes action ``a`` with weight
    ``ant_laws[i][a]``, independently, as an ``(n + 1,) * k`` grid."""
    strides = [(n + 1) ** (k - 1 - j) for j in range(k)]
    law = np.zeros((n + 1) ** k)
    law[0] = 1.0
    for a in ant_laws:
        # Joining task j adds its stride to the flat index.  Before the
        # last of at most n ants no load reaches n, so no shift wraps.
        grown = a[k] * law
        for j, stride in enumerate(strides):
            grown[stride:] += a[j] * law[:-stride]
        law = grown
    return law.reshape((n + 1,) * k)


def _round_laws(ants, n: int, k: int) -> list[np.ndarray]:
    """Law of the loads after each round of a window; ``ants`` holds every
    ant's ``(actions, weights)`` over its paths."""
    laws: list[np.ndarray] = []
    for r in range(ants[0][0].shape[1]):
        if r and all(np.array_equal(acts[:, r], acts[:, r - 1]) for acts, _ in ants):
            laws.append(laws[-1])  # a hold round: no path moved
        else:
            laws.append(_convolve_ants([_action_law(acts[:, r], w, k) for acts, w in ants], n, k))
    return laws


def agent_laws(name: str, demand: DemandVector, feedback, W: np.ndarray) -> np.ndarray:
    """The lumped agent chain's law of the loads at every round of one
    phase that starts from loads ``W``: shape ``(rounds,) + (n + 1,) * k``."""
    alg = ALGORITHMS[name][0]()
    n, k = demand.n, demand.k
    d = demand.as_array()
    windows = _windows(alg)
    starts = [j for j in range(k) for _ in range(W[j])] + [IDLE] * (n - int(W.sum()))
    tables = {s: _paths(name, s) for s in set(starts)}

    # Window 1: every read sees the phase-start loads.
    first_law = _read_law(feedback.lack_probabilities(d - W), len(windows[0]))
    first = {s: t[0].coins * _read_weights(first_law, t[0].reads) for s, t in tables.items()}
    laws = _round_laws([(tables[s][0].actions, first[s]) for s in starts], n, k)
    if len(windows) == 1:
        return np.array(laws)

    # Window 2 reads the loads window 1 ended with: condition on the
    # pause pattern (every ant's action at the end of window 1).
    ended = {s: t[0].actions[:, -1] for s, t in tables.items()}
    support = {s: sorted(set(ended[s][first[s] > 0].tolist())) for s in tables}
    rounds = len(windows[1])
    second = np.zeros((rounds,) + (n + 1,) * k)
    by_pattern: dict = {}
    for pattern in itertools.product(*(support[s] for s in starts)):
        key = tuple(sorted(zip(starts, pattern)))
        if key not in by_pattern:
            ends = np.array([a for a in pattern if a != IDLE], dtype=np.int64)
            W1 = np.bincount(ends, minlength=k)
            second_law = _read_law(feedback.lack_probabilities(d - W1), rounds)
            joint = {}
            for s, a1 in set(key):
                t2 = tables[s][1]
                joint[s, a1] = (
                    np.where(ended[s][t2.parent] == a1, first[s][t2.parent], 0.0)
                    * t2.coins
                    * _read_weights(second_law, t2.reads)
                )
            by_pattern[key] = np.array(
                _round_laws([(tables[s][1].actions, joint[s, a1]) for s, a1 in key], n, k)
            )
        second += by_pattern[key]
    return np.concatenate([np.array(laws), second])


# ----------------------------------------------------------------------
# Engine law


class _RecordingGenerator:
    """A lane's generator that records every draw.

    ``answers`` maps the index of a ``binomial`` call to the value it
    returns; every other draw is answered by ``real``.  Each record keeps
    the call's parameters and the value returned.
    """

    def __init__(self, answers: dict[int, object], real: np.random.Generator) -> None:
        self.answers = answers
        self.real = real
        self.binomials: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.multinomials: list[tuple[int, np.ndarray, np.ndarray]] = []

    def binomial(self, n, p):
        i = len(self.binomials)
        value = self.answers[i] if i in self.answers else self.real.binomial(n, p)
        counts, drawn = np.ravel(n), np.ravel(value)
        assert drawn.min() >= 0 and (drawn <= counts).all(), "answer outside the draw's support"
        self.binomials.append((counts, np.ravel(p) * np.ones(counts.size), drawn))
        return np.reshape(value, np.shape(n)) if np.ndim(n) else int(value)

    def multinomial(self, n, pvals):
        value = self.real.multinomial(n, pvals)
        self.multinomials.append((int(n), np.array(pvals, dtype=np.float64), value))
        return value


def _run_phase(
    sim: CountingSimulator, answers: dict, real: np.random.Generator
) -> tuple[_RecordingGenerator, np.ndarray]:
    """One phase of ``sim`` run as a one-lane batch; the lane's recording
    generator and the loads the engine reported after every round."""
    rng = _RecordingGenerator(answers, real)
    sim._rng_factory._streams["counting"] = rng
    loads = sim.run(sim.algorithm.phase_length, trace_stride=1).trace.loads
    return rng, loads


@lru_cache(maxsize=None)
def _box(bounds: tuple[int, ...]) -> np.ndarray:
    """Every vector ``x`` with ``0 <= x <= bounds``, one per row."""
    return np.array(list(itertools.product(*(range(b + 1) for b in bounds))), dtype=np.int64)


@lru_cache(maxsize=None)
def _outcomes(total: int, cells: int) -> np.ndarray:
    """Every way to put ``total`` ants into ``cells`` cells, one per row."""
    rows = _box((total,) * cells)
    return rows[rows.sum(axis=1) == total]


#: ``math.comb(n, x)`` and ``x!`` for every count a colony here draws.
_COMB = np.array([[math.comb(n, x) for x in range(N_MAX + 1)] for n in range(N_MAX + 1)])
_FACTORIAL = np.array([math.factorial(x) for x in range(N_MAX + 1)], dtype=float)


def _binomial_pmf(x: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``P[Binomial(n, p) = x]``, entrywise, multiplied along the last axis."""
    return (_COMB[n, x] * p**x * (1.0 - p) ** (n - x)).prod(axis=-1)


def _multinomial_pmf(x: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """``P[Multinomial(n, p) = x]`` for every row ``x``."""
    return _FACTORIAL[n] / _FACTORIAL[x].prod(axis=1) * (p**x).prod(axis=1)


def _decision_law(W, leaves, multinomials, n: int, k: int) -> np.ndarray:
    """Law of ``W - L + J[:k]``: ``L`` the recorded leave draw (one
    binomial per task), ``J`` the recorded join draw (none: no joins)."""
    leave_n, leave_p, _ = leaves
    left = _box(tuple(leave_n.tolist()))
    stay = W - left
    assert np.all(stay >= 0), "more leavers than workers"
    p_stay = _binomial_pmf(left, leave_n, leave_p)
    if multinomials:
        ((idle, pvals, _),) = multinomials
        x = _outcomes(idle, k + 1)
        joined, p_joined = x[:, :k], _multinomial_pmf(x, idle, pvals)
    else:
        joined, p_joined = np.zeros((1, k), dtype=np.int64), np.ones(1)
    loads = (stay[:, np.newaxis, :] + joined[np.newaxis, :, :]).reshape(-1, k)
    law = np.zeros((n + 1,) * k)
    np.add.at(law, tuple(loads.T), np.outer(p_stay, p_joined).ravel())
    return law


def _check_reported(reported: np.ndarray, expected: np.ndarray, answers) -> None:
    assert (reported == expected).all(), (
        f"the engine reported loads {reported.tolist()}, but its draws "
        f"({answers}) give {expected.tolist()}"
    )


def engine_laws(name: str, demand: DemandVector, feedback, W: np.ndarray, real) -> np.ndarray:
    """The counting engine's law of the loads at every round of one phase
    that starts from loads ``W``: shape ``(rounds,) + (n + 1,) * k``."""
    alg = ALGORITHMS[name][0]()
    n, k = demand.n, demand.k
    sim = CountingSimulator(alg, demand, feedback, initial_loads=W)
    rounds = alg.phase_length
    laws = np.zeros((rounds,) + (n + 1,) * k)
    if isinstance(alg, TrivialAlgorithm):
        idle = n - int(W.sum())
        # The join attempts (binomial call 1) size the join draw.
        scripts = [{}] if alg.join_probability >= 1.0 else [{1: a} for a in range(idle + 1)]
        for answers in scripts:
            rng, loads = _run_phase(sim, answers, real)
            leaves, *attempts = rng.binomials
            weight = 1.0
            if attempts:
                ((tries, p, value),) = attempts
                weight = float(_binomial_pmf(value, tries, p))
            joins = sum(value[:k] for _, _, value in rng.multinomials)
            _check_reported(loads[0], W - leaves[2] + joins, answers)
            laws[0] += weight * _decision_law(W, leaves, rng.multinomials, n, k)
        return laws
    pause_round, decision_round = (1, 2) if isinstance(alg, AntAlgorithm) else (alg.m, 2 * alg.m)
    # The pauses (binomial call 0) set the loads the decisions read.
    for paused in _box(tuple(W.tolist())):
        answers = {0: paused}
        rng, loads = _run_phase(sim, answers, real)
        (pause_n, pause_p, _), leaves = rng.binomials
        weight = float(_binomial_pmf(paused, pause_n, pause_p))
        for r in range(1, decision_round):
            held = W if r < pause_round else W - paused
            _check_reported(loads[r - 1], held, answers)
            laws[(r - 1, *held)] += weight
        joins = sum(value[:k] for _, _, value in rng.multinomials)
        _check_reported(loads[-1], W - leaves[2] + joins, answers)
        laws[decision_round - 1] += weight * _decision_law(W, leaves, rng.multinomials, n, k)
    return laws


# ----------------------------------------------------------------------


def _configs():
    for name, (_, k) in ALGORITHMS.items():
        n, demand_vectors = COLONIES[k]
        for i, demands in enumerate(demand_vectors):
            for fb in FEEDBACKS:
                yield pytest.param(name, n, demands, fb, id=f"{name}-d{i}-{fb}")


@pytest.mark.parametrize("name, n, demands, feedback_name", list(_configs()))
def test_engine_load_chain_is_the_lumped_agent_chain(name, n, demands, feedback_name):
    demand = DemandVector(np.array(demands), n=n, strict=False)
    feedback = FEEDBACKS[feedback_name](demand.as_array())
    real = np.random.default_rng(sum(demands))
    for W in _load_vectors(n, demand.k):
        agent = agent_laws(name, demand, feedback, W)
        engine = engine_laws(name, demand, feedback, W, real)
        np.testing.assert_allclose(agent.sum(axis=tuple(range(1, agent.ndim))), 1.0, atol=TOL)
        gap = float(np.abs(agent - engine).max())
        assert gap <= TOL, f"loads {W.tolist()}: laws differ by {gap:.3g}"


@pytest.mark.parametrize(
    "p1, p2",
    [
        ([0.3, 0.7, 0.1], [0.9, 0.6, 0.5]),
        ([0.0, 1.0, 0.5], [1.0, 1.0, 0.25]),
        ([1.0, 1.0, 1.0], [1.0, 0.5, 1.0]),
        ([0.0, 0.0, 0.0], [0.4, 0.2, 0.9]),
    ],
)
def test_one_idle_ants_join_law_is_the_kernels(p1, p2):
    # An idle Ant marks task j iff both reads say LACK: u = p1 * p2.
    p1, p2 = np.array(p1), np.array(p2)
    first, second = _paths("ant", IDLE)
    weights = (first.coins * _read_weights(_read_law(p1, 1), first.reads))[second.parent]
    weights = weights * second.coins * _read_weights(_read_law(p2, 1), second.reads)
    law = _action_law(second.actions[:, -1], weights, 3)
    np.testing.assert_allclose(law, enumerate_subset_join_probabilities(p1 * p2), atol=TOL)
    np.testing.assert_allclose(law, exact_join_probabilities(p1 * p2), atol=TOL)


class _RecordingFeedback(FeedbackModel):
    """Sigmoid feedback that records what every ``sample_lack_matrix`` call asked."""

    def __init__(self) -> None:
        self.inner = SigmoidFeedback(0.3)
        self.calls: list[tuple[int, np.ndarray, np.ndarray]] = []

    def lack_probabilities(self, deficits):
        return self.inner.lack_probabilities(deficits)

    def sample_lack_matrix(self, deficits, n_ants, rng, *, t=0, demands=None):
        self.calls.append((t, np.array(deficits), np.array(demands)))
        return super().sample_lack_matrix(deficits, n_ants, rng, t=t, demands=demands)


def test_agent_engine_reads_the_deficits_of_the_round_before():
    # Demands alternate every round, so reading this round's demands, or
    # this round's loads, shows.
    schedule = PeriodicDemandSchedule(
        (
            DemandVector(np.array([10, 30, 5]), n=60, strict=False),
            DemandVector(np.array([25, 5, 20]), n=60, strict=False),
        ),
        period=1,
    )
    feedback = _RecordingFeedback()
    start = np.array([20, 0, 12])
    out = Simulator(
        AntAlgorithm(gamma=1 / 16, constants=CONSTANTS),
        schedule,
        feedback,
        initial_assignment=assignment_from_loads(start, 60),
        seed=4,
    ).run(8, trace_stride=1)
    loads = np.vstack([start, out.trace.loads])
    assert [t for t, _, _ in feedback.calls] == list(range(1, 9))
    for t, deficits, demands in feedback.calls:
        before = schedule.demands_at(t - 1).demands
        np.testing.assert_array_equal(demands, before)
        np.testing.assert_array_equal(deficits, before - loads[t - 1])
    assert len({tuple(row) for row in loads}) > 2, "the loads never moved"
