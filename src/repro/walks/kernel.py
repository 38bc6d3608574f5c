"""The hop engine: every simulated walk, batched over the CSR graph layout.

It runs one walk, the biased continuous-time random walk behind ``randCl``
(§3.1).  A segment of it holds at a vertex of degree ``d`` for an ``Exp(d)``
time, then jumps to a uniformly chosen neighbour, until the segment's
duration is spent (on an irregular graph the segment's stationary law is
uniform over vertices, which is why the paper walks in continuous time).  At
a segment's end cluster ``C`` the walk accepts with probability
``|C| / max |C'|`` and otherwise restarts from ``C``, turning the uniform law
into ``|C| / n``.  :mod:`repro.walks.law` computes the endpoint law exactly;
the kernel suite holds both hop paths to it.

:class:`ArrayKernel` runs it over a :class:`~repro.walks.csr.CSRLayout`:
all concurrent walks of a sampling round advance together, one step per hop
generation — bulk unit exponentials scaled by the cached degree reciprocals
for the holding times (``Exp(d) = Exp(1) / d``), and hop targets picked
straight out of the flat ``indices`` row by offset
(``indices[indptr[pos] + floor(u * deg)]``; with uniform neighbour choice
the weighted-row ``searchsorted`` generalisation collapses to this single
gather).

One backend (numpy), two paths by batch size.  Batches of at least
:data:`MIN_VECTOR_BATCH` walks take the vector path: they advance in
lockstep over zero-copy numpy views of the CSR buffers.  Smaller batches
(an exchange round batches one walk per cluster member) take the scalar
path: one loop per batch that runs its walks one after another, holding
the layout's Python-object hop rows (:meth:`~repro.walks.csr.CSRLayout.
scalar_rows`: ``(inv_degree, degree, neighbours)``, the neighbours padded
so that no pick needs a clamp), a Python-float copy of each buffer and
both cursors in locals.  Both paths read the same bulk buffers, generated
in blocks from a dedicated ``Generator(PCG64)`` stream; the buffers stay
numpy arrays, and the scalar path's float copy of one is made once per
buffer.  The path choice depends only on batch size, never on drawn
values, so it is deterministic.  ``tests/reference_walk.py`` keeps the
scalar path as per-walk loops drawing one value at a time, and the kernel
suite holds the two to the same results and kernel state draw for draw.

The pair invariant of the biased scalar loop: a segment from a vertex with
neighbours that makes ``K`` hops takes exactly ``K + 1`` exponentials and
``K + 1`` uniforms.  Hop ``i`` takes pair ``i`` (its holding time and its
neighbour pick); the last pair's exponential ends the segment and its
uniform is the acceptance test.  So the loop reads the two buffers as one
stream of ``(exponential, uniform)`` pairs, ``zip`` over two list
iterators, and only touches the cursors where a buffer runs out.  A walk
from an isolated vertex draws its acceptance uniforms only; no hop lands on
one, since the graph is undirected.

Determinism contract (``repro.trace``): the kernel owns its *own* RNG
stream, seeded lazily from the parent (engine) stream via one
``getrandbits(64)`` at first use.  Pre-drawn exponential/uniform buffers
and the stream state are checkpointed by :meth:`ArrayKernel.snapshot_state`
and restored bit-exactly by :meth:`ArrayKernel.restore_state` — a resumed
run consumes the exact buffered values, then continues the stream where the
uninterrupted run would, and never re-consumes the parent stream.  Buffered
values are consumed strictly in generation order, so refill block
boundaries cannot perturb the draw sequence.
"""

from __future__ import annotations

import math
import random
from typing import Hashable, List, Sequence

import numpy as _np

from ..errors import WalkError
from .sampler import check_kernel_snapshot

Vertex = Hashable

#: Randomness is generated into buffers of this many values per refill.
_REFILL = 4096

#: Batches below this size take the scalar path.  ``bench_walk_kernel.py``
#: on the n0 = 300 and n0 = 1 200 bootstrap overlays (2 vCPU, two runs): the
#: vector path runs at 0.17-0.61x of the scalar loop at 32-96 walks,
#: 0.69-0.87x at 256, 0.88-1.16x at 384 and 1.34-1.75x at 512.  The two
#: paths consume the stream in different orders, so moving this changes
#: recorded executions.
MIN_VECTOR_BATCH = 256


class ArrayKernel:
    """Batched CSR hop engine with a checkpointable private RNG stream."""

    def __init__(self, graph, parent_rng: random.Random) -> None:
        self._graph = graph
        self._parent_rng = parent_rng
        # Private stream, seeded lazily from the parent at first use so an
        # unused kernel never perturbs the engine stream.
        self._gen = None
        self._exp_buf = _np.empty(0, dtype=_np.float64)
        self._uni_buf = _np.empty(0, dtype=_np.float64)
        self._exp_cur = 0
        self._uni_cur = 0
        # Python-float copies of the two buffers for the scalar loop, each
        # keyed on the buffer object it was made from.
        self._exp_listed = self._exp_list = None
        self._uni_listed = self._uni_list = None

    @property
    def backend(self) -> str:
        """The backend this kernel runs on: always ``numpy``."""
        return "numpy"

    # ------------------------------------------------------------------
    # Private RNG stream and buffers
    # ------------------------------------------------------------------
    def _ensure_gen(self):
        gen = self._gen
        if gen is None:
            seed = self._parent_rng.getrandbits(64)
            gen = _np.random.Generator(_np.random.PCG64(seed))
            self._gen = gen
        return gen

    def _generate_exp(self, count):
        """``count`` fresh unit exponentials from the private stream."""
        # -log1p(-u) == -log(1-u) for u in [0,1): exact at u == 0.
        return -_np.log1p(-self._ensure_gen().random(count))

    def _generate_uni(self, count):
        """``count`` fresh uniforms in ``[0, 1)`` from the private stream."""
        return self._ensure_gen().random(count)

    def _exp_values(self) -> list:
        """The current exponential buffer as Python floats, for the scalar loop.

        Made once per buffer with ``tolist()`` and keyed on the buffer object,
        so a refill or :meth:`restore_state` (which replace the buffer)
        replaces it too.  The buffer itself stays a numpy array, which the
        vector path slices zero-copy.
        """
        buf = self._exp_buf
        if self._exp_listed is not buf:
            self._exp_listed, self._exp_list = buf, buf.tolist()
        return self._exp_list

    def _uni_values(self) -> list:
        """The current uniform buffer as Python floats (see :meth:`_exp_values`)."""
        buf = self._uni_buf
        if self._uni_listed is not buf:
            self._uni_listed, self._uni_list = buf, buf.tolist()
        return self._uni_list

    def _refill_exp(self) -> list:
        """Replace the exponential buffer with a fresh block; its values as floats."""
        self._exp_buf = self._generate_exp(_REFILL)
        return self._exp_values()

    def _refill_uni(self) -> list:
        """Replace the uniform buffer with a fresh block; its values as floats."""
        self._uni_buf = self._generate_uni(_REFILL)
        return self._uni_values()

    def _take_exp_vec(self, count):
        """``count`` unit exponentials as a numpy view (buffer remainder first)."""
        buf, cursor = self._exp_buf, self._exp_cur
        available = len(buf) - cursor
        if available >= count:
            self._exp_cur = cursor + count
            return buf[cursor : cursor + count]
        remainder = buf[cursor:]
        needed = count - available
        fresh = self._generate_exp(max(_REFILL, needed))
        self._exp_buf = fresh
        self._exp_cur = needed
        return _np.concatenate((remainder, fresh[:needed]))

    def _take_uni_vec(self, count):
        """``count`` uniforms as a numpy view (buffer remainder first)."""
        buf, cursor = self._uni_buf, self._uni_cur
        available = len(buf) - cursor
        if available >= count:
            self._uni_cur = cursor + count
            return buf[cursor : cursor + count]
        remainder = buf[cursor:]
        needed = count - available
        fresh = self._generate_uni(max(_REFILL, needed))
        self._uni_buf = fresh
        self._uni_cur = needed
        return _np.concatenate((remainder, fresh[:needed]))

    # ------------------------------------------------------------------
    # Biased-walk batches
    # ------------------------------------------------------------------
    def run_biased_batch(
        self, starts: Sequence[Vertex], segment_duration: float, max_restarts: int
    ) -> List[tuple]:
        """One biased CTRW from each start (the ``randCl`` rejection loop).

        Returns ``(cluster, hops, restarts, acceptance_tests, truncated)``
        tuples: CTRW segments of ``segment_duration`` each, endpoint accepted
        with probability ``weight / max_weight``, truncation (the last
        endpoint accepted unconditionally) after ``max_restarts`` rejected
        segments.  Every segment ends in one acceptance test, so
        ``acceptance_tests == restarts``.
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
        rows = self._rows_for(csr, starts)
        segment_duration = float(segment_duration)
        if len(rows) >= MIN_VECTOR_BATCH:
            return self._biased_vector(rows, segment_duration, max_restarts, csr, max_weight)
        return self._biased_scalar(rows, segment_duration, max_restarts, csr, max_weight)

    def _biased_scalar(
        self,
        rows: List[int],
        segment_duration: float,
        max_restarts: int,
        csr,
        max_weight: float,
    ) -> List[tuple]:
        # One loop over the whole batch, walk after walk, consuming the two
        # buffers as one stream of (exponential, uniform) pairs: a segment
        # from a row with neighbours that makes K hops takes K + 1 pairs, the
        # last one's exponential ending it and its uniform deciding
        # acceptance.  ``pairs`` zips two list iterators placed at the
        # cursors ``exp_cur`` / ``uni_cur`` and runs until either buffer is
        # spent (a stretch).  The for-else at a stretch's end refills the
        # spent buffer(s), the exponential's first, as the per-draw order
        # would, and resumes.  No hop is counted: a walk's hops are the pairs
        # it took minus its segments.  Weights are read live from the layout,
        # so in-place weight churn is seen.
        hop_rows = csr.scalar_rows()
        weights = csr.weights
        vertices = csr.vertices
        exp, exp_cur = self._exp_values(), self._exp_cur
        uni, uni_cur = self._uni_values(), self._uni_cur
        exp_it, uni_it = _iter_at(exp, exp_cur), _iter_at(uni, uni_cur)
        pairs = zip(exp_it, uni_it)
        out = []
        try:
            for row in rows:
                inv, degree, neighbours = hop_rows[row]
                restarts = 0
                if not degree:
                    # An isolated start (no hop lands on one): each segment
                    # ends where it began and draws its acceptance uniform only.
                    uni_cur = len(uni) - uni_it.__length_hint__()
                    while True:
                        restarts += 1
                        if uni_cur == len(uni):
                            uni, uni_cur = self._refill_uni(), 0
                        accepted = uni[uni_cur] * max_weight < weights[row]
                        uni_cur += 1
                        if accepted or restarts >= max_restarts:
                            break
                    out.append((vertices[row], 0, restarts, restarts, not accepted))
                    exp_cur = len(exp) - exp_it.__length_hint__()
                    uni_it = _iter_at(uni, uni_cur)
                    pairs = zip(exp_it, uni_it)
                    continue
                # Pairs taken before ``mark``, the walk's place in ``exp``.
                taken, mark = 0, len(exp) - exp_it.__length_hint__()
                while True:
                    restarts += 1
                    remaining = segment_duration
                    while True:
                        for x, y in pairs:
                            holding = x * inv
                            if holding >= remaining:
                                break
                            remaining -= holding
                            row = neighbours[int(y * degree)]
                            inv, degree, neighbours = hop_rows[row]
                        else:
                            used = min(len(exp) - exp_cur, len(uni) - uni_cur)
                            exp_cur += used
                            uni_cur += used
                            taken += exp_cur - mark
                            if exp_cur == len(exp):
                                exp, exp_cur = self._refill_exp(), 0
                            if uni_cur == len(uni):
                                uni, uni_cur = self._refill_uni(), 0
                            mark = exp_cur
                            exp_it, uni_it = _iter_at(exp, exp_cur), _iter_at(uni, uni_cur)
                            pairs = zip(exp_it, uni_it)
                            continue
                        break
                    accepted = y * max_weight < weights[row]
                    if accepted or restarts >= max_restarts:
                        break
                taken += len(exp) - exp_it.__length_hint__() - mark
                out.append((vertices[row], taken - restarts, restarts, restarts, not accepted))
        finally:
            self._exp_cur = len(exp) - exp_it.__length_hint__()
            self._uni_cur = len(uni) - uni_it.__length_hint__()
        return out

    def _biased_vector(
        self,
        rows: List[int],
        segment_duration: float,
        max_restarts: int,
        csr,
        max_weight: float,
    ) -> List[tuple]:
        views = csr.numpy_views()
        indptr = views["indptr"]
        indices = views["indices"]
        inv_degree = views["inv_degree"]
        weights = views["weights"]
        count = len(rows)
        pos = _np.array(rows, dtype=_np.int64)
        remaining = _np.full(count, segment_duration, dtype=_np.float64)
        hops = _np.zeros(count, dtype=_np.int64)
        restarts = _np.zeros(count, dtype=_np.int64)
        truncated = _np.zeros(count, dtype=bool)
        done = _np.zeros(count, dtype=bool)
        alive = _np.arange(count)
        while alive.size:
            p = pos[alive]
            base = indptr[p]
            degree = indptr[p + 1] - base
            # Isolated vertices end their segment immediately (no holding
            # time is drawn), exactly like the scalar path.
            segment_over = degree == 0
            active = _np.nonzero(~segment_over)[0]
            if active.size:
                holding = self._take_exp_vec(active.size) * inv_degree[p[active]]
                rem = remaining[alive[active]]
                finished = holding >= rem
                segment_over[active[finished]] = True
                hop_local = active[~finished]
                if hop_local.size:
                    h_idx = alive[hop_local]
                    remaining[h_idx] = rem[~finished] - holding[~finished]
                    d = degree[hop_local]
                    offsets = (self._take_uni_vec(h_idx.size) * d).astype(_np.int64)
                    _np.minimum(offsets, d - 1, out=offsets)
                    pos[h_idx] = indices[base[hop_local] + offsets]
                    hops[h_idx] += 1
            if segment_over.any():
                e_idx = alive[segment_over]
                restarts[e_idx] += 1
                accepted = self._take_uni_vec(e_idx.size) * max_weight < weights[pos[e_idx]]
                done[e_idx[accepted]] = True
                rejected = e_idx[~accepted]
                if rejected.size:
                    capped = restarts[rejected] >= max_restarts
                    cap_idx = rejected[capped]
                    done[cap_idx] = True
                    truncated[cap_idx] = True
                    remaining[rejected[~capped]] = segment_duration
            alive = _np.nonzero(~done)[0]
        vertices = csr.vertices
        return [
            (vertices[int(row)], int(hop_count), int(restart), int(restart), bool(trunc))
            for row, hop_count, restart, trunc in zip(
                pos.tolist(), hops.tolist(), restarts.tolist(), truncated.tolist()
            )
        ]

    # ------------------------------------------------------------------
    # Checkpoint serialisation (repro.trace)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """JSON-ready snapshot: backend, private stream state, buffers + cursors.

        Buffers are trimmed to their unconsumed tail (cursor 0 in the
        snapshot); a resumed kernel consumes these exact values first, then
        refills from the restored stream, reproducing the uninterrupted
        draw sequence bit-identically.
        """
        return {
            "backend": "numpy",
            "rng": None if self._gen is None else self._gen.bit_generator.state,
            "exp_buffer": [float(value) for value in self._exp_buf[self._exp_cur :]],
            "exp_cursor": 0,
            "uni_buffer": [float(value) for value in self._uni_buf[self._uni_cur :]],
            "uni_cursor": 0,
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
        exp = [float(v) for v in data.get("exp_buffer", ())][int(data.get("exp_cursor", 0)) :]
        uni = [float(v) for v in data.get("uni_buffer", ())][int(data.get("uni_cursor", 0)) :]
        self._exp_buf = _np.asarray(exp, dtype=_np.float64)
        self._uni_buf = _np.asarray(uni, dtype=_np.float64)
        self._exp_cur = 0
        self._uni_cur = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _rows_for(csr, starts: Sequence[Vertex]) -> List[int]:
        try:
            return [csr.row_of(start) for start in starts]
        except KeyError as error:
            raise WalkError(f"start vertex {error.args[0]!r} is not in the graph") from None


def _iter_at(values: list, cursor: int):
    """An iterator over ``values`` from index ``cursor`` on, without a copy."""
    iterator = iter(values)
    iterator.__setstate__(cursor)
    return iterator
