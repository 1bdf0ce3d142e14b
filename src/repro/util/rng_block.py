"""Block-drawn binomials: numpy's inversion sampler, vectorized exactly.

``Generator.binomial(n, p)`` with array arguments goes through numpy's
broadcasting machinery, which costs ~10-15 microseconds per call *before
any sampling happens* (argument coercion, constraint checks, iterator
setup) — independent of the array length.  The batched counting engine
(:mod:`repro.sim.batched`) would make one such call per lane per draw,
so at B = 16 lanes this fixed overhead alone would cap the speedup over
one-lane runs well below its target.

:class:`BinomialBlockSampler` removes it without changing a single drawn
value.  In the parameter regime the engine actually inhabits
(``p <= 0.5`` and ``n * p <= 30`` — small per-task loads and the paper's
small step probabilities), numpy's C sampler is *binomial inversion*
(``random_binomial_inversion`` in ``numpy/random/src/distributions``),
which consumes exactly **one** ``next_double`` from the bit generator
per variate (more only on an astronomically rare bound-overflow reset).
``Generator.random(m)`` consumes the *same* ``next_double`` sequence.
So the sampler:

1. pulls each lane's uniforms in one bulk ``rng.random(m)`` call
   (~2 us) — one uniform per element with ``n > 0 and p > 0``, in
   element order, exactly as the C loop would;
2. replays the inversion recurrence itself, vectorized across all lanes
   at once, with bit-for-bit C arithmetic: the recurrence
   ``px' = ((n - X + 1) * p * px) / (X * q)`` is pure IEEE-754
   ``*,/,-`` (numpy matches C exactly), and the only transcendental
   setup values — ``qn = exp(n * log(q))`` and the reset bound — are
   computed through :mod:`math` (the same libm ``exp``/``log``/``sqrt``
   the C sampler links against) and cached;
3. detects the rare reset branch (``X > bound``) and finishes the
   affected lane with a scalar replay that consumes the identical
   uniform sequence, so even that path stays bit-exact.

Outside the inversion regime (any active element with ``p > 0.5`` or
``n * p > 30``, where numpy switches to the BTPE rejection sampler whose
consumption pattern is impractical to replay), :meth:`draw` returns
``None`` and the caller falls back to per-lane ``Generator.binomial``
calls — slower, never wrong.

Bit-identity between the two paths is pinned by
``tests/util/test_rng_block.py``, which replays thousands of
configurations against freshly seeded generators and checks both the
drawn values and the generator's stream position afterwards.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "BinomialBlockSampler",
    "INVERSION_NP_MAX",
    "MAX_DISTINCT_P",
    "NP_MEAN_MAX",
]

#: numpy's inversion/BTPE crossover: inversion runs iff ``p * n <= 30``
#: (with ``p <= 0.5``); see ``random_binomial`` in numpy's distributions.c.
INVERSION_NP_MAX = 30.0

#: The vectorized replay iterates max(X)+1 times, and max(X) grows like
#: ``n*p + O(sqrt(n*p))``; past a few microseconds per iteration the
#: replay loses to numpy's C loop even including the latter's fixed
#: per-call overhead.  Draws whose largest ``n*p`` exceeds this are
#: delegated back to ``Generator.binomial``.
NP_MEAN_MAX = 4.0

#: Array-valued ``p`` is decomposed into its distinct values (saturating
#: feedback collapses per-task probabilities onto a handful of floats);
#: past this many distinct values the per-value masking would cost more
#: than numpy's broadcast call, so :meth:`~BinomialBlockSampler.draw`
#: falls back.
MAX_DISTINCT_P = 16


def _scalar_inversion(next_u, n: int, p: float, qn: float, bound: int) -> int:
    """One variate of numpy's ``random_binomial_inversion``, verbatim.

    Python floats are IEEE-754 doubles, so this is bit-for-bit the C
    loop; ``next_u`` supplies the ``next_double`` stream.
    """
    if n == 0 or p == 0.0:
        return 0
    q = 1.0 - p
    X = 0
    px = qn
    U = next_u()
    while U > px:
        X += 1
        if X > bound:
            X = 0
            px = qn
            U = next_u()
        else:
            U -= px
            px = ((n - X + 1) * p * px) / (X * q)
    return X


def _setup(n: int, p: float) -> tuple[float, int]:
    """``(qn, bound)`` exactly as the C sampler's setup computes them.

    ``math.exp/log/sqrt`` call the same libm the C code does, so the
    values are bit-identical to numpy's.
    """
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    np_ = n * p
    bound = int(min(float(n), np_ + 10.0 * math.sqrt(np_ * q + 1.0)))
    return qn, bound


class BinomialBlockSampler:
    """Draw per-lane binomial vectors bit-identical to per-lane
    ``rng.binomial(n[b], p[b])`` calls, at block-draw cost.

    Stateless apart from a value-addressed setup cache (safe to share
    across runs: keys are exact ``p`` values, tables indexed by ``n``).
    """

    def __init__(self) -> None:
        # scalar p -> (qn_table, bound_table) indexed by n.
        self._tables: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    # -- setup cache ---------------------------------------------------
    def _scalar_tables(self, p: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
        tables = self._tables.get(p)
        if tables is None or tables[0].size <= n_max:
            size = max(n_max + 1, 2 * (tables[0].size if tables else 64))
            qn_t = np.empty(size, dtype=np.float64)
            bound_t = np.empty(size, dtype=np.int64)
            for n in range(size):
                qn_t[n], bound_t[n] = _setup(n, p)
            tables = (qn_t, bound_t)
            self._tables[p] = tables
        return tables

    # -- the block draw ------------------------------------------------
    def draw(
        self,
        rngs: list[np.random.Generator],
        n: np.ndarray,
        p,
    ) -> np.ndarray | None:
        """``out[b] == rngs[b].binomial(n[b], p[b])`` bit-for-bit, or
        ``None`` (generators untouched) when any active element is
        outside the inversion regime and the caller must fall back.

        ``n`` is ``(B, k)`` int64; ``p`` a float scalar or ``(B, k)``
        float64 (row-broadcast scalars arrive as the scalar).
        """
        B, k = n.shape
        scalar_p = not isinstance(p, np.ndarray)
        if scalar_p:
            if p == 0.0:
                return np.zeros((B, k), dtype=np.int64)
            if p < 0.0 or p > 0.5:
                return None
            n_max = int(n.max())
            if n_max * p > NP_MEAN_MAX:
                return None
            qn_t, bound_t = self._scalar_tables(p, n_max)
            qn = qn_t[n]
            bound = bound_t[n]
            active = n > 0
        else:
            if p.min() < 0.0:
                return None
            active = (n > 0) & (p > 0.0)
            if not active.any():
                return np.zeros((B, k), dtype=np.int64)
            # Decompose into the distinct active p values and compose the
            # per-element setup from the per-value tables.  Saturating
            # feedback makes one or two values the overwhelmingly common
            # case; probe that before paying for a full np.unique.
            v0 = float(p.ravel()[int(np.argmax(active))])
            if bool(np.all((p == v0) | (n == 0))):
                # One value wherever a draw happens: exactly the scalar
                # draw (n == 0 elements consume nothing either way).
                return self.draw(rngs, n, v0)
            if bool(np.all((p == v0) | ~active)):
                values = [v0]
            else:
                p_active = p[active]
                # A short prefix with too many distinct values already
                # decides the fallback, without sorting the whole block.
                if np.unique(p_active[: 4 * MAX_DISTINCT_P]).size > MAX_DISTINCT_P:
                    return None
                values = np.unique(p_active).tolist()
                if len(values) > MAX_DISTINCT_P:
                    return None
            qn = np.ones((B, k), dtype=np.float64)
            bound = np.zeros((B, k), dtype=np.int64)
            for v in values:
                if v > 0.5:
                    return None
                mask = active & (p == v)
                n_v = n[mask]
                n_max = int(n_v.max())
                if n_max * v > NP_MEAN_MAX:
                    return None
                qn_t, bound_t = self._scalar_tables(v, n_max)
                qn[mask] = qn_t[n_v]
                bound[mask] = bound_t[n_v]

        # One uniform per active element, per lane, in element order —
        # the exact next_double sequence the C loop would consume.
        blocks: list[np.ndarray | None] = []
        if active.all():
            U = np.empty((B, k), dtype=np.float64)
            for b, rng in enumerate(rngs):
                rng.random(out=U[b])
                blocks.append(U[b])
        else:
            U = np.zeros((B, k), dtype=np.float64)
            for b, rng in enumerate(rngs):
                mask = active[b]
                m = int(mask.sum())
                if m:
                    block = rng.random(m)
                    U[b, mask] = block
                    blocks.append(block)
                else:
                    blocks.append(None)

        X = np.zeros((B, k), dtype=np.int64)
        # Inactive elements hold U = 0 and qn >= 0, so they never pass.
        live = np.flatnonzero(U > qn)
        resets: list[int] = []
        if live.size:
            Uf = U.ravel()[live]
            pxf = qn.ravel()[live]
            # n - X + 1 is an exact integer in float64 in either order.
            nf1 = n.ravel()[live].astype(np.float64) + 1.0
            pf = p if scalar_p else p.ravel()[live]
            qf = 1.0 - pf
            bound_flat = bound.ravel()
            # Every live element has taken the same number of steps, so
            # the candidate value x is one scalar for all of them.
            bound_min = int(bound_flat[live].min())
            x = 0
            x_flat = X.ravel()
            while live.size:
                x += 1
                cont = None
                if x > bound_min:
                    over = x > bound_flat[live]
                    if over.any():
                        # Astronomically rare (U within float-sum slack
                        # of 1): the C sampler restarts the element on a
                        # fresh uniform.  Finish those lanes scalarly
                        # below.
                        resets.extend(live[over].tolist())
                        cont = ~over
                Uf -= pxf
                pxf = ((nf1 - x) * pf * pxf) / (x * qf)
                cont = Uf > pxf if cont is None else (Uf > pxf) & cont
                if not cont.all():
                    x_flat[live[~cont]] = x
                    live = live[cont]
                    Uf = Uf[cont]
                    pxf = pxf[cont]
                    nf1 = nf1[cont]
                    if not scalar_p:
                        pf = pf[cont]
                        qf = qf[cont]
            X = x_flat.reshape(B, k)

        # One replay per lane, from its *first* reset element: the scalar
        # replay re-runs every later element of the lane (including any
        # further resets), so acting on later recorded resets again would
        # double-consume the stream.
        first_reset: dict[int, int] = {}
        for flat in resets:
            b, j = divmod(int(flat), k)
            if j < first_reset.get(b, k):
                first_reset[b] = j
        for b in sorted(first_reset):
            self._replay_lane(
                rngs, n, p, qn, bound, active, blocks, X, b, first_reset[b], scalar_p
            )
        return X

    def _replay_lane(
        self, rngs, n, p, qn, bound, active, blocks, X, b: int, j: int, scalar_p: bool
    ) -> None:
        """Redo lane ``b`` from element ``j`` after a reset.

        The reset consumes an extra uniform, shifting every later
        element's uniform within the lane; replay the C loop exactly,
        feeding first the remainder of the lane's already-drawn block,
        then fresh singles from the lane's generator (which sits right
        after the block — the correct continuation of the stream).
        """
        mask = active[b]
        block = blocks[b]
        queue = list(block[int(mask[:j].sum()) :])  # uniforms from element j on
        pos = 0

        def next_u() -> float:
            nonlocal pos
            if pos < len(queue):
                u = queue[pos]
                pos += 1
                return float(u)
            return float(rngs[b].random())

        for col in range(j, n.shape[1]):
            if not mask[col]:
                X[b, col] = 0
                continue
            X[b, col] = _scalar_inversion(
                next_u,
                int(n[b, col]),
                float(p if scalar_p else p[b, col]),
                float(qn[b, col]),
                int(bound[b, col]),
            )
