"""Continuous random walks (CTRW) on a walkable graph.

The paper uses *continuous-time* random walks (Aldous & Fill [1]) because, on
an irregular graph, the continuous-time walk's stationary distribution is
uniform over the vertices — unlike the discrete-time walk, whose stationary
distribution is proportional to the degree.  The walk holds at each vertex
for an exponentially distributed time with rate equal to the vertex degree,
i.e. it crosses each incident edge at unit rate, and it is run for a fixed
*duration* rather than a fixed number of hops.

:class:`ContinuousRandomWalk` simulates this process exactly (exponential
holding times, uniform neighbour choice) and also exposes a discrete-skeleton
variant used when only the jump chain matters.  Every hop can be charged to a
metrics ledger by callers; the walk itself only reports hop counts so that
the cost model stays in one place (``repro.core.randcl``).

Fast path: hops read the graph's cached :meth:`~repro.walks.interface.
WalkableGraph.neighbour_table` (O(1) on the overlay, invalidated
incrementally on edge churn) instead of materialising a neighbour list, and
the batched :meth:`ContinuousRandomWalk.run_many` entry point draws unit
exponentials in bulk and scales them by the current degree — distributionally
identical to per-hop ``expovariate`` draws (``Exp(d) = Exp(1) / d``) while
amortising the per-walk setup across a whole batch.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence

from ..errors import WalkError
from .interface import WalkableGraph
from .kernel import ArrayKernel, resolve_kernel_name

Vertex = Hashable

#: Number of unit-exponential holding times drawn per refill in the batched
#: walk entry points (large enough to amortise the list comprehension, small
#: enough that a short batch of walks does not overdraw noticeably).
_EXP_BATCH = 256


@dataclass(slots=True)
class WalkResult:
    """Outcome of one continuous random walk.

    Attributes
    ----------
    endpoint:
        Vertex on which the walk stopped.
    hops:
        Number of edge traversals (jump-chain transitions) performed.
    duration:
        The total (continuous) duration the walk was run for.
    elapsed:
        The continuous time actually consumed (equals ``duration`` unless the
        walk was stopped early, e.g. on an isolated vertex).
    path:
        The sequence of vertices visited, starting with the origin.
    """

    endpoint: Vertex
    hops: int
    duration: float
    elapsed: float
    path: List[Vertex] = field(default_factory=list)


class ContinuousRandomWalk:
    """Continuous-time random walk simulator on a :class:`WalkableGraph`."""

    def __init__(
        self, graph: WalkableGraph, rng: random.Random, kernel: str = "naive"
    ) -> None:
        self._graph = graph
        self._rng = rng
        # Bulk unit-exponential buffer used by the batched entry points.
        self._exp_buffer: List[float] = []
        # Which hop engine serves the batched entry points: "naive" keeps
        # the historical per-hop loop on the engine stream; "array" routes
        # batches through the CSR kernel (its own checkpointable stream).
        self._kernel_name = resolve_kernel_name(kernel)
        self._array_kernel: Optional[ArrayKernel] = None

    @property
    def kernel_name(self) -> str:
        """The selected walk kernel (``naive`` or ``array``)."""
        return self._kernel_name

    def array_kernel(self) -> ArrayKernel:
        """The lazily created batched CSR kernel bound to this walk's graph."""
        kernel = self._array_kernel
        if kernel is None:
            kernel = ArrayKernel(self._graph, self._rng)
            self._array_kernel = kernel
        return kernel

    # ------------------------------------------------------------------
    # Continuous-time walk
    # ------------------------------------------------------------------
    def run(self, start: Vertex, duration: float, record_path: bool = False) -> WalkResult:
        """Run the CTRW from ``start`` for the given continuous ``duration``.

        At a vertex of degree ``d`` the walk waits an ``Exp(d)`` holding time
        then jumps to a uniformly chosen neighbour.  A walk starting on an
        isolated vertex stays there and the result reports zero hops.
        """
        if duration < 0:
            raise WalkError("walk duration must be non-negative")
        if not self._graph.has_vertex(start):
            raise WalkError(f"start vertex {start!r} is not in the graph")
        graph = self._graph
        rng = self._rng
        current = start
        remaining = float(duration)
        elapsed = 0.0
        hops = 0
        path: List[Vertex] = [current] if record_path else []
        while remaining > 0:
            neighbours = graph.neighbour_table(current)
            degree = len(neighbours)
            if degree == 0:
                break
            holding = rng.expovariate(degree)
            if holding >= remaining:
                elapsed += remaining
                remaining = 0.0
                break
            remaining -= holding
            elapsed += holding
            current = neighbours[rng.randrange(degree)]
            hops += 1
            if record_path:
                path.append(current)
        return WalkResult(
            endpoint=current, hops=hops, duration=float(duration), elapsed=elapsed, path=path
        )

    def run_many(
        self, starts: Sequence[Vertex], duration: float, record_path: bool = False
    ) -> List[WalkResult]:
        """Run one CTRW of ``duration`` from each of ``starts`` (batched).

        Holding times are drawn as bulk unit exponentials scaled by the
        current degree (``Exp(d) = Exp(1) / d``), so the per-walk setup and
        the per-hop ``expovariate`` call overhead are amortised across the
        batch.  The walks are distributionally identical to :meth:`run` —
        only the order in which the underlying uniform draws are consumed
        differs — and remain exact simulations of the continuous process.
        """
        if duration < 0:
            raise WalkError("walk duration must be non-negative")
        graph = self._graph
        for start in starts:
            if not graph.has_vertex(start):
                raise WalkError(f"start vertex {start!r} is not in the graph")
        duration = float(duration)
        if self._kernel_name == "array" and not record_path:
            return [
                WalkResult(endpoint=endpoint, hops=hops, duration=duration, elapsed=elapsed)
                for endpoint, hops, elapsed in self.array_kernel().run_ctrw_batch(
                    starts, duration
                )
            ]
        return [self._run_buffered(start, duration, record_path) for start in starts]

    def run_buffered(self, start: Vertex, duration: float, record_path: bool = False) -> WalkResult:
        """One walk using the bulk exponential buffer (see :meth:`run_many`).

        Distributionally identical to :meth:`run`; repeated callers (the
        biased walk's restart loop, batched exchanges) share the buffer so
        the per-hop draw is a list pop plus one division.
        """
        if duration < 0:
            raise WalkError("walk duration must be non-negative")
        if not self._graph.has_vertex(start):
            raise WalkError(f"start vertex {start!r} is not in the graph")
        return self._run_buffered(start, float(duration), record_path)

    def _run_buffered(self, start: Vertex, duration: float, record_path: bool) -> WalkResult:
        graph = self._graph
        randrange = self._rng.randrange
        buffer = self._exp_buffer
        current = start
        remaining = duration
        elapsed = 0.0
        hops = 0
        path: List[Vertex] = [current] if record_path else []
        while remaining > 0:
            neighbours = graph.neighbour_table(current)
            degree = len(neighbours)
            if degree == 0:
                break
            if not buffer:
                self._refill_exponentials()
                buffer = self._exp_buffer
            holding = buffer.pop() / degree
            if holding >= remaining:
                elapsed += remaining
                remaining = 0.0
                break
            remaining -= holding
            elapsed += holding
            current = neighbours[randrange(degree)]
            hops += 1
            if record_path:
                path.append(current)
        return WalkResult(
            endpoint=current, hops=hops, duration=duration, elapsed=elapsed, path=path
        )

    def _refill_exponentials(self) -> None:
        """Refill the bulk buffer with unit-exponential holding times."""
        random_fn = self._rng.random
        log = math.log
        self._exp_buffer = [-log(1.0 - random_fn()) for _ in range(_EXP_BATCH)]

    def snapshot_walk_state(self) -> dict:
        """Full RNG-derived walk state: exponential buffer + kernel state.

        The pre-drawn unit exponentials not yet consumed are RNG-derived
        state living *outside* the generator — a resumed run must consume
        these exact values before drawing fresh ones — and so are the array
        kernel's private stream and buffers once that kernel has been
        instantiated; restoring the result reproduces the uninterrupted draw
        sequence bit-exactly under either kernel.
        """
        return {
            "exp_buffer": list(self._exp_buffer),
            "kernel": (
                self._array_kernel.snapshot_state()
                if self._array_kernel is not None
                else None
            ),
        }

    def restore_walk_state(self, data: dict) -> None:
        """Restore a snapshot taken by :meth:`snapshot_walk_state`."""
        self._exp_buffer = [float(value) for value in data.get("exp_buffer", ())]
        kernel_state = data.get("kernel")
        if kernel_state is not None:
            self.array_kernel().restore_state(kernel_state)

    # ------------------------------------------------------------------
    # Distribution helpers
    # ------------------------------------------------------------------
    def endpoint_distribution(
        self, start: Vertex, duration: float, samples: int
    ) -> Dict[Vertex, float]:
        """Empirical endpoint distribution over ``samples`` independent walks."""
        if samples <= 0:
            raise WalkError("samples must be positive")
        counts: Dict[Vertex, int] = {}
        for result in self.run_many([start] * samples, duration):
            counts[result.endpoint] = counts.get(result.endpoint, 0) + 1
        return {vertex: count / samples for vertex, count in counts.items()}
