"""The biased continuous random walk behind ``randCl``.

Section 3.1 of the paper describes the cluster-selection primitive as a
*biased CTRW* on the overlay: the walk is a sequence of CTRWs; when a CTRW's
remaining duration is exhausted at cluster ``C_i``, a random number in
``[0, 1]`` is drawn and the walk stops (accepting ``C_i``) if the number is
smaller than ``|C_i| / max_C |C|``; otherwise a new CTRW starts from ``C_i``.
The effect is a rejection filter that converts the CTRW's uniform-over-
clusters stationary distribution into the node-uniform distribution
``|C| / n`` over clusters.

:class:`BiasedClusterWalk` implements exactly that loop.  Hop counts, the
number of restarts and the number of acceptance tests are reported so that
``repro.core.randcl`` can convert them into message and round costs using the
actual cluster sizes involved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence

from ..errors import WalkError
from .ctrw import ContinuousRandomWalk
from .interface import WalkableGraph

Vertex = Hashable


@dataclass(slots=True)
class BiasedWalkOutcome:
    """Outcome of a biased CTRW (one ``randCl`` invocation).

    Attributes
    ----------
    cluster:
        The accepted endpoint cluster.
    hops:
        Total number of overlay edges traversed across every restart.
    restarts:
        Number of CTRW segments run (at least 1).
    acceptance_tests:
        Number of acceptance coin flips performed (equals ``restarts`` when
        the walk accepted on its last segment).
    visited:
        Every cluster at which a segment ended (diagnostics).
    truncated:
        ``True`` when the restart cap was hit and the last endpoint was
        accepted unconditionally; the sampling bias this introduces is
        reported so experiments can detect it (it never triggers with the
        default cap in practice).
    """

    cluster: Vertex
    hops: int
    restarts: int
    acceptance_tests: int
    visited: List[Vertex] = field(default_factory=list)
    truncated: bool = False


class BiasedClusterWalk:
    """Biased CTRW targeting the ``|C|/n`` distribution over clusters."""

    def __init__(
        self,
        graph: WalkableGraph,
        rng: random.Random,
        segment_duration: float,
        max_restarts: int = 64,
        kernel: str = "naive",
    ) -> None:
        if segment_duration <= 0:
            raise WalkError("segment duration must be positive")
        if max_restarts < 1:
            raise WalkError("max_restarts must be at least 1")
        self._graph = graph
        self._rng = rng
        self._segment_duration = float(segment_duration)
        self._max_restarts = max_restarts
        self._ctrw = ContinuousRandomWalk(graph, rng, kernel=kernel)
        self._kernel_name = self._ctrw.kernel_name

    @property
    def kernel_name(self) -> str:
        """The selected walk kernel (``naive`` or ``array``)."""
        return self._kernel_name

    @property
    def segment_duration(self) -> float:
        """Continuous duration of each CTRW segment before an acceptance test."""
        return self._segment_duration

    def configure(self, segment_duration: float, max_restarts: int) -> None:
        """Update the walk parameters in place (lets callers reuse one walk)."""
        if segment_duration <= 0:
            raise WalkError("segment duration must be positive")
        if max_restarts < 1:
            raise WalkError("max_restarts must be at least 1")
        self._segment_duration = float(segment_duration)
        self._max_restarts = max_restarts

    def run(self, start: Vertex) -> BiasedWalkOutcome:
        """Run the biased walk from ``start`` and return the accepted cluster."""
        if not self._graph.has_vertex(start):
            raise WalkError(f"start vertex {start!r} is not in the graph")
        if self._kernel_name == "array":
            return self._run_kernel([start])[0]
        max_weight = self._graph.max_weight()
        if max_weight <= 0:
            raise WalkError("graph has no positive vertex weight")

        current = start
        total_hops = 0
        restarts = 0
        acceptance_tests = 0
        visited: List[Vertex] = []
        for _ in range(self._max_restarts):
            restarts += 1
            segment = self._ctrw.run_buffered(current, self._segment_duration)
            total_hops += segment.hops
            current = segment.endpoint
            visited.append(current)
            acceptance_tests += 1
            acceptance = self._graph.weight(current) / max_weight
            if self._rng.random() < acceptance:
                return BiasedWalkOutcome(
                    cluster=current,
                    hops=total_hops,
                    restarts=restarts,
                    acceptance_tests=acceptance_tests,
                    visited=visited,
                )
        return BiasedWalkOutcome(
            cluster=current,
            hops=total_hops,
            restarts=restarts,
            acceptance_tests=acceptance_tests,
            visited=visited,
            truncated=True,
        )

    def run_batch(self, starts: Sequence[Vertex]) -> List[BiasedWalkOutcome]:
        """Run one biased walk from each of ``starts``.

        Under the array kernel the whole batch advances in lockstep through
        the CSR hop engine; under the naive kernel this is a plain loop over
        :meth:`run`.  Outcomes are returned in ``starts`` order.
        """
        starts = list(starts)
        if not starts:
            return []
        if self._kernel_name == "array":
            for start in starts:
                if not self._graph.has_vertex(start):
                    raise WalkError(f"start vertex {start!r} is not in the graph")
            return self._run_kernel(starts)
        return [self.run(start) for start in starts]

    def _run_kernel(self, starts: List[Vertex]) -> List[BiasedWalkOutcome]:
        outcomes = self._ctrw.array_kernel().run_biased_batch(
            starts, self._segment_duration, self._max_restarts
        )
        # The kernel does not track per-segment endpoints, so `visited` (a
        # diagnostics-only field) stays empty on this path.
        return [
            BiasedWalkOutcome(
                cluster=cluster,
                hops=hops,
                restarts=restarts,
                acceptance_tests=acceptance_tests,
                truncated=truncated,
            )
            for cluster, hops, restarts, acceptance_tests, truncated in outcomes
        ]

    def snapshot_walk_state(self) -> dict:
        """Exponential buffer + array-kernel state of the underlying CTRW."""
        return self._ctrw.snapshot_walk_state()

    def restore_walk_state(self, data: dict) -> None:
        """Restore a snapshot taken by :meth:`snapshot_walk_state`."""
        self._ctrw.restore_walk_state(data)
