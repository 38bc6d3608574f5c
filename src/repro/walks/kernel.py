"""The hop engine: every simulated walk, batched over the CSR graph layout.

A continuous-time random walk holds at a vertex of degree ``d`` for an
``Exp(d)`` time, then jumps to a uniformly chosen neighbour, until its
duration is spent (on an irregular graph its stationary law is uniform over
vertices, which is why the paper walks in continuous time).  The biased walk
behind ``randCl`` (§3.1) chains such segments: at a segment's end cluster
``C`` it accepts with probability ``|C| / max |C'|`` and otherwise restarts
from ``C``, turning the uniform law into ``|C| / n``.

:class:`ArrayKernel` runs both over a :class:`~repro.walks.csr.CSRLayout`:
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
take the scalar path, one walk at a time over the ``array`` rows, because
per-step numpy dispatch overhead swamps the win below a few dozen
concurrent walks (an exchange round batches one walk per cluster member).
Both paths read the same bulk buffers, generated in blocks from a dedicated
``Generator(PCG64)`` stream.  The path choice depends only on batch size,
never on drawn values, so it is deterministic.

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

import random
from typing import Hashable, List, Sequence

import numpy as _np

from ..errors import ConfigurationError, WalkError

Vertex = Hashable

#: Randomness is generated into buffers of this many values per refill.
_REFILL = 4096

#: Batches below this size take the scalar CSR path: per-step numpy
#: dispatch overhead swamps the win until a few dozen walks advance
#: together (measured crossover ~64 on engine-sized overlays, where
#: exchange rounds batch ~40 walks; ``bench_walk_kernel.py`` puts it at
#: 16-32 for long plain CTRWs).  The two paths consume the stream in
#: different orders, so moving this changes recorded executions.
MIN_VECTOR_BATCH = 64


def check_kernel_snapshot(data: dict) -> None:
    """Refuse a kernel snapshot the numpy backend did not write.

    Snapshots name their backend.  The retired python backend drew from a
    ``random.Random`` stream, so its checkpoints cannot be resumed here.
    """
    backend = data.get("backend")
    if backend == "python":
        raise ConfigurationError(
            "walk-kernel checkpoint was written without numpy by the retired "
            "python backend; it cannot be resumed"
        )
    if backend != "numpy":
        raise ConfigurationError(f"unknown walk-kernel checkpoint backend {backend!r}")


def resolve_kernel_name(name, simulated: bool) -> str:
    """Validate a ``walk_kernel`` option value; the one kernel is ``"array"``.

    ``"naive"`` names the retired per-hop loop, which drew from the engine
    stream: a simulated run recorded on it cannot be reproduced, so it is
    refused by name.  Without simulated walks the option never selected
    anything, so there it reads as ``"array"``.
    """
    if name == "array" or (name == "naive" and not simulated):
        return "array"
    if name == "naive":
        raise ConfigurationError(
            "walk kernel 'naive' was retired: simulated walks run on the 'array' "
            "kernel, and a run recorded on the naive kernel cannot be reproduced"
        )
    raise ConfigurationError(f"unknown walk kernel {name!r}; expected 'array'")


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

    def _next_exp(self) -> float:
        cursor = self._exp_cur
        if cursor >= len(self._exp_buf):
            self._exp_buf = self._generate_exp(_REFILL)
            cursor = 0
        self._exp_cur = cursor + 1
        return float(self._exp_buf[cursor])

    def _next_uni(self) -> float:
        cursor = self._uni_cur
        if cursor >= len(self._uni_buf):
            self._uni_buf = self._generate_uni(_REFILL)
            cursor = 0
        self._uni_cur = cursor + 1
        return float(self._uni_buf[cursor])

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
    # CTRW batches
    # ------------------------------------------------------------------
    def run_ctrw_batch(self, starts: Sequence[Vertex], duration: float) -> List[tuple]:
        """One CTRW of ``duration`` from each start; ``(endpoint, hops, elapsed)``.

        An exact simulation of the continuous process (exponential holding
        times, uniform neighbour choice); only the order in which the
        private stream's draws are consumed differs between the scalar and
        vectorised paths.
        """
        if duration < 0:
            raise WalkError("walk duration must be non-negative")
        csr = self._graph.csr()
        rows = self._rows_for(csr, starts)
        duration = float(duration)
        if len(rows) >= MIN_VECTOR_BATCH:
            return self._ctrw_vector(rows, duration, csr)
        vertices = csr.vertices
        out = []
        for row in rows:
            end_row, hops, elapsed = self._ctrw_scalar(row, duration, csr)
            out.append((vertices[end_row], hops, elapsed))
        return out

    def _ctrw_scalar(self, row: int, duration: float, csr) -> tuple:
        indptr = csr.indptr
        indices = csr.indices
        inv_degree = csr.inv_degree
        remaining = duration
        hops = 0
        while remaining > 0:
            base = indptr[row]
            degree = indptr[row + 1] - base
            if degree == 0:
                break
            holding = self._next_exp() * inv_degree[row]
            if holding >= remaining:
                remaining = 0.0
                break
            remaining -= holding
            offset = int(self._next_uni() * degree)
            if offset >= degree:  # guard against u*d rounding up to d
                offset = degree - 1
            row = indices[base + offset]
            hops += 1
        return (row, hops, duration - remaining)

    def _ctrw_vector(self, rows: List[int], duration: float, csr) -> List[tuple]:
        views = csr.numpy_views()
        indptr = views["indptr"]
        indices = views["indices"]
        inv_degree = views["inv_degree"]
        count = len(rows)
        pos = _np.array(rows, dtype=_np.int64)
        remaining = _np.full(count, duration, dtype=_np.float64)
        hops = _np.zeros(count, dtype=_np.int64)
        done = _np.zeros(count, dtype=bool)
        if duration <= 0:
            done[:] = True
        alive = _np.nonzero(~done)[0]
        while alive.size:
            p = pos[alive]
            base = indptr[p]
            degree = indptr[p + 1] - base
            isolated = degree == 0
            if isolated.any():
                done[alive[isolated]] = True  # remaining untouched: elapsed 0
                keep = ~isolated
                alive = alive[keep]
                base = base[keep]
                degree = degree[keep]
                if not alive.size:
                    break
                p = pos[alive]
            holding = self._take_exp_vec(alive.size) * inv_degree[p]
            rem = remaining[alive]
            finished = holding >= rem
            if finished.any():
                f_idx = alive[finished]
                done[f_idx] = True
                remaining[f_idx] = 0.0
            hopping = ~finished
            if hopping.any():
                h_idx = alive[hopping]
                remaining[h_idx] = rem[hopping] - holding[hopping]
                d = degree[hopping]
                offsets = (self._take_uni_vec(h_idx.size) * d).astype(_np.int64)
                _np.minimum(offsets, d - 1, out=offsets)
                pos[h_idx] = indices[base[hopping] + offsets]
                hops[h_idx] += 1
            alive = alive[hopping]
        vertices = csr.vertices
        elapsed = duration - remaining
        return [
            (vertices[int(row)], int(hop_count), float(spent))
            for row, hop_count, spent in zip(pos.tolist(), hops.tolist(), elapsed.tolist())
        ]

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
        if segment_duration <= 0:
            raise WalkError("segment duration must be positive")
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
        vertices = csr.vertices
        out = []
        for row in rows:
            end_row, hops, restarts, truncated = self._biased_scalar(
                row, segment_duration, max_restarts, csr, max_weight
            )
            out.append((vertices[end_row], hops, restarts, restarts, truncated))
        return out

    def _biased_scalar(
        self, row: int, segment_duration: float, max_restarts: int, csr, max_weight: float
    ) -> tuple:
        indptr = csr.indptr
        indices = csr.indices
        inv_degree = csr.inv_degree
        weights = csr.weights
        hops = 0
        restarts = 0
        while True:
            restarts += 1
            remaining = segment_duration
            while True:
                base = indptr[row]
                degree = indptr[row + 1] - base
                if degree == 0:
                    break
                holding = self._next_exp() * inv_degree[row]
                if holding >= remaining:
                    break
                remaining -= holding
                offset = int(self._next_uni() * degree)
                if offset >= degree:
                    offset = degree - 1
                row = indices[base + offset]
                hops += 1
            if self._next_uni() * max_weight < weights[row]:
                return (row, hops, restarts, False)
            if restarts >= max_restarts:
                return (row, hops, restarts, True)

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
