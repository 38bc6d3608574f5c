"""The hop engine: every simulated walk, batched over the CSR graph layout.

It runs one walk, the biased continuous-time random walk behind ``randCl``
(§3.1).  A segment of it holds at a vertex of degree ``d`` for an ``Exp(d)``
time, then jumps to a uniformly chosen neighbour, until the segment's
duration ``T`` is spent (on an irregular graph the segment's stationary law
is uniform over vertices, which is why the paper walks in continuous time).
At a segment's end cluster ``C`` the walk accepts with probability
``|C| / max |C'|`` and otherwise restarts from ``C``, turning the uniform law
into ``|C| / n``.  :mod:`repro.walks.law` computes the endpoint law exactly;
the kernel suite holds the kernel to it, and ``tests/reference_walk.py``
keeps the exponential-clock walk as the readable definition.

The kernel runs the segment *uniformized* (Jensen 1953): with ``Λ`` the
largest degree, it is a chain on a ``Poisson(Λ·T)`` clock that, at each
tick, picks one of ``Λ`` slots uniformly and moves to the slot's neighbour
when the slot is below the vertex's degree, staying put otherwise.  The
endpoint and the hop count have the CTRW's joint law.  Ticks do not depend
on holding times, so ``r`` of them compose: a code uniform over ``Λ^r`` names
``r`` slots at once, and :class:`_TickTables`, built from the structure
alone and cached per :class:`~repro.walks.csr.CSRLayout`, give the row after
``r`` ticks and the hops they took.  ``k`` ticks go per lookup, ``k`` the
largest with ``V·Λ^k <= TABLE_CAP``.

Stream layout.  A batch runs in rounds; every walk of round ``j`` is at its
``j``-th segment.  A round of ``W`` walks makes one ``poisson(Λ·T, W)``
call for the tick counts ``N``, then one contiguous take from the uniform
buffer: walk by walk, ``N // k`` codes of ``k`` ticks and one code of the
``N % k`` ticks left, then the ``W`` acceptance uniforms.  A code ``y`` of
``r`` ticks names entry ``int(y * Λ^r)`` of the ``r``-tick table.  Walks
rejected below the restart cap form the next round.

Two executors read exactly that layout: a scalar one over Python lists and
a vector one of numpy lockstep gathers at the same offsets.  Both truncate
the ``k``-tick codes with one numpy ``astype(int64)`` over the take, and
Python's ``int(y * m)`` truncates the same IEEE product numpy does for the
remainder codes, so the two return the same outcomes and consume the same
values.
Each round takes the vector executor when it holds at least
:data:`MIN_VECTOR_BATCH` walks; the choice affects speed only.

Determinism contract (``repro.trace``): the kernel owns its *own* RNG
stream, seeded lazily from the parent (engine) stream via one
``getrandbits(64)`` at first use.  The stream state and the uniform
buffer's unconsumed tail are checkpointed by :meth:`ArrayKernel.
snapshot_state` and restored bit-exactly by :meth:`ArrayKernel.
restore_state`: a resumed run consumes the exact buffered values, then
continues the stream where the uninterrupted run would, and never
re-consumes the parent stream.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence

import numpy as _np

from ..errors import WalkError
from .sampler import check_kernel_snapshot

#: Uniforms are generated into buffers of at least this many values per refill.
_REFILL = 4096

#: ``k`` ticks per lookup: the largest ``k`` with ``V * Λ**k`` at most this.
TABLE_CAP = 2**14

#: Rounds of at least this many walks take the vector executor.
#: ``bench_walk_kernel.py`` on the n0 = 300, 1 200 and 4 000 bootstrap
#: overlays (2 vCPU): the vector executor runs at 0.55-0.71x of the scalar
#: one at 32 walks, 1.05-1.26x at 64, 1.46-1.78x at 96 and 3.0-3.3x at 256.
#: Both executors consume the stream alike, so this constant changes no
#: recorded byte.
MIN_VECTOR_BATCH = 64


class _TickTables:
    """The uniformized chain's lookup tables of one layout (structure only).

    ``step[row * size + code]`` is ``size`` times the row ``k`` ticks lead
    to and ``hops`` the hops they took, ``size = Λ**k``; the remainder
    tables for ``r < k`` ticks sit in ``rest_next``/``rest_hops`` at
    ``rest_base[r] + row * Λ**r + code``.  Each list has a numpy twin.
    """

    def __init__(self, csr) -> None:
        views = csr.numpy_views()
        indptr, indices = views["indptr"], views["indices"]
        count = len(csr)
        degree = _np.diff(indptr)
        lam = max(1, int(degree.max(initial=0)))
        k = 1
        while lam > 1 and count * lam ** (k + 1) <= TABLE_CAP:
            k += 1
        # One tick: slot s < degree moves to neighbour s, any other stays.
        moves = _np.arange(lam) < degree[:, None]
        target = _np.repeat(_np.arange(count)[:, None], lam, axis=1)
        rows, slots = _np.nonzero(moves)
        target[rows, slots] = indices[indptr[rows] + slots]
        hop = moves.astype(_np.int64)
        nxt, hops, tables = _np.arange(count)[:, None], _np.zeros((count, 1), _np.int64), []
        for _ in range(k):
            tables.append((nxt.ravel(), hops.ravel()))
            hops = (hops[..., None] + hop[nxt]).reshape(count, -1)
            nxt = target[nxt].reshape(count, -1)
        sizes = [lam**r for r in range(k)]
        self.lam, self.k, self.size = lam, k, lam**k
        self.step_np, self.hops_np = nxt.ravel() * self.size, hops.ravel()
        self.rest_next_np = _np.concatenate([table for table, _ in tables])
        self.rest_hops_np = _np.concatenate([table for _, table in tables])
        self.rest_size_np = _np.array(sizes, dtype=_np.int64)
        self.rest_base_np = _np.cumsum([0] + [count * size for size in sizes[:-1]])
        self.step, self.hops = self.step_np.tolist(), self.hops_np.tolist()
        self.rest_next, self.rest_hops = self.rest_next_np.tolist(), self.rest_hops_np.tolist()
        self.rest_size, self.rest_base = sizes, self.rest_base_np.tolist()


class ArrayKernel:
    """Batched CSR hop engine with a checkpointable private RNG stream."""

    def __init__(self, graph, parent_rng: random.Random) -> None:
        self._graph = graph
        self._parent_rng = parent_rng
        # Private stream, seeded lazily from the parent at first use so an
        # unused kernel never perturbs the engine stream.
        self._gen = None
        self._uniforms = _np.empty(0, dtype=_np.float64)
        self._cursor = 0

    @property
    def backend(self) -> str:
        """The backend this kernel runs on: always ``numpy``."""
        return "numpy"

    # ------------------------------------------------------------------
    # Private RNG stream and buffer
    # ------------------------------------------------------------------
    def _ensure_gen(self):
        gen = self._gen
        if gen is None:
            seed = self._parent_rng.getrandbits(64)
            gen = _np.random.Generator(_np.random.PCG64(seed))
            self._gen = gen
        return gen

    def _take(self, count: int):
        """The next ``count`` uniforms of the buffer, refilled from the stream when spent."""
        buf, cursor = self._uniforms, self._cursor
        end = cursor + count
        if end <= len(buf):
            self._cursor = end
            return buf[cursor:end]
        needed = end - len(buf)
        fresh = self._ensure_gen().random(max(_REFILL, needed))
        self._uniforms, self._cursor = fresh, needed
        return _np.concatenate((buf[cursor:], fresh[:needed]))

    # ------------------------------------------------------------------
    # Biased-walk batches
    # ------------------------------------------------------------------
    def run_biased_batch(
        self, starts: Sequence[int], segment_duration: float, max_restarts: int
    ) -> List[tuple]:
        """One biased CTRW from each start row (the ``randCl`` rejection loop).

        Starts and endpoints are rows of the graph's CSR layout (callers
        holding vertices map them at their boundary).  Returns ``(row, hops,
        restarts, acceptance_tests, truncated)`` tuples: CTRW segments of
        ``segment_duration`` each, endpoint accepted with probability
        ``weight / max_weight``, truncation (the last endpoint accepted
        unconditionally) after ``max_restarts`` rejected segments.  Every
        segment ends in one acceptance test, so ``acceptance_tests ==
        restarts``.
        """
        if not (math.isfinite(segment_duration) and segment_duration > 0):
            raise WalkError(
                f"segment duration must be finite and positive, not {segment_duration!r}"
            )
        if max_restarts < 1:
            raise WalkError("max_restarts must be at least 1")
        max_weight = self._graph.max_weight()
        if max_weight <= 0:
            raise WalkError("graph has no positive vertex weight")
        csr = self._graph.csr()
        rows = list(starts)
        if rows and not 0 <= min(rows) <= max(rows) < len(csr.vertices):
            raise WalkError(f"start rows {min(rows)}..{max(rows)} are not all rows of the graph")
        tables = csr.walk_tables
        if tables is None:
            tables = csr.walk_tables = _TickTables(csr)
        ticks = tables.lam * float(segment_duration)
        out = [None] * len(rows)
        hops = [0] * len(rows)
        pending = range(len(rows))
        for restart in range(1, max_restarts + 1):
            if not rows:
                break
            counts = self._ensure_gen().poisson(ticks, len(rows))
            values = self._take(int((counts // tables.k).sum()) + 2 * len(rows))
            executor = self._vector if len(rows) >= MIN_VECTOR_BATCH else self._scalar
            landed, walked, accepted = executor(tables, rows, counts, values, csr, max_weight)
            last = restart == max_restarts
            rejected = []
            for walk, row, walk_hops, ok in zip(pending, landed, walked, accepted):
                hops[walk] += walk_hops
                if ok or last:
                    out[walk] = (row, hops[walk], restart, restart, not ok)
                else:
                    rejected.append(walk)
            rows = [row for row, ok in zip(landed, accepted) if not ok]
            pending = rejected
        return out

    @staticmethod
    def _scalar(tables, rows, counts, values, csr, max_weight) -> tuple:
        # Walk after walk over Python lists: ``N // k`` lookups in the
        # ``k``-tick table, then one in the table of the ticks left.  The
        # ``k``-tick entries are truncated in one numpy pass, as the vector
        # executor truncates them.
        k, size, step, step_hops = tables.k, tables.size, tables.step, tables.hops
        rest_next, rest_hops = tables.rest_next, tables.rest_hops
        rest_base, rest_size = tables.rest_base, tables.rest_size
        picks, values = (values * size).astype(_np.int64).tolist(), values.tolist()
        landed, walked, pos = [], [], 0
        for row, ticks in zip(rows, counts.tolist()):
            codes, left = divmod(ticks, k)
            base, hops, end = row * size, 0, pos + codes
            for pick in picks[pos:end]:
                i = base + pick
                hops += step_hops[i]
                base = step[i]
            m = rest_size[left]
            i = rest_base[left] + base // size * m + int(values[end] * m)
            landed.append(rest_next[i])
            walked.append(hops + rest_hops[i])
            pos = end + 1
        weights = csr.weights
        accepted = [y * max_weight < weights[row] for y, row in zip(values[pos:], landed)]
        return landed, walked, accepted

    @staticmethod
    def _vector(tables, rows, counts, values, csr, max_weight) -> tuple:
        # Lockstep over the walks sorted by code count, longest first, so
        # that the walks still stepping are always a prefix.
        k, size = tables.k, tables.size
        codes = counts // k
        first = _np.cumsum(codes + 1) - (codes + 1)
        order = _np.argsort(-codes, kind="stable")
        codes, first = codes[order], first[order]
        base = _np.asarray(rows, dtype=_np.int64)[order] * size
        hops = _np.zeros(len(rows), dtype=_np.int64)
        picks = (values * size).astype(_np.int64)
        steps = int(codes[0]) if len(codes) else 0
        for step, live in enumerate(_np.searchsorted(-codes, -_np.arange(steps)).tolist()):
            i = base[:live] + picks[first[:live] + step]
            hops[:live] += tables.hops_np[i]
            base[:live] = tables.step_np[i]
        left = counts[order] - codes * k
        m = tables.rest_size_np[left]
        pick = (values[first + codes] * m).astype(_np.int64)
        i = tables.rest_base_np[left] + base // size * m + pick
        landed, walked = _np.empty_like(base), _np.empty_like(hops)
        landed[order], walked[order] = tables.rest_next_np[i], hops + tables.rest_hops_np[i]
        weights = csr.numpy_views()["weights"]
        accepted = values[len(values) - len(rows) :] * max_weight < weights[landed]
        return landed.tolist(), walked.tolist(), accepted.tolist()

    # ------------------------------------------------------------------
    # Checkpoint serialisation (repro.trace)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """JSON-ready snapshot: backend, private stream state, uniform buffer tail.

        A resumed kernel consumes these exact values first, then refills
        from the restored stream, reproducing the uninterrupted draw
        sequence bit-identically.
        """
        return {
            "backend": "numpy",
            "rng": None if self._gen is None else self._gen.bit_generator.state,
            "uniforms": self._uniforms[self._cursor :].tolist(),
        }

    def restore_state(self, data: dict) -> None:
        """Restore a snapshot taken by :meth:`snapshot_state` (bit-exact).

        Never consumes the parent stream: a restored, already-seeded kernel
        resumes its own stream in place.
        """
        check_kernel_snapshot(data)
        rng_state = data.get("rng")
        if rng_state is None:
            self._gen = None
        else:
            bit_generator = _np.random.PCG64()
            bit_generator.state = rng_state
            self._gen = _np.random.Generator(bit_generator)
        uniforms = [float(value) for value in data.get("uniforms", ())]
        self._uniforms = _np.asarray(uniforms, dtype=_np.float64)
        self._cursor = 0

