"""Minimal graph interface required by the random-walk machinery.

Walks do not care whether they run on the OVER overlay, a test fixture or a
networkx graph — they only need vertices, neighbourhoods and per-vertex
weights (cluster sizes).  :class:`WalkableGraph` captures that contract and
:class:`MappingGraph` provides a simple dict-backed implementation used by
tests and by adapters.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, Hashable, Iterable, List, Mapping, Sequence

from ..rng import choice_weighted
from .csr import CSRLayout

Vertex = Hashable


class WalkableGraph(abc.ABC):
    """Abstract view of an undirected, vertex-weighted graph."""

    @abc.abstractmethod
    def vertices(self) -> Sequence[Vertex]:
        """Return the vertices of the graph (order is irrelevant)."""

    @abc.abstractmethod
    def neighbours(self, vertex: Vertex) -> Sequence[Vertex]:
        """Return the neighbours of ``vertex``."""

    @abc.abstractmethod
    def weight(self, vertex: Vertex) -> float:
        """Return the weight of ``vertex`` (for NOW: the cluster size)."""

    # ------------------------------------------------------------------
    # Derived helpers (concrete)
    # ------------------------------------------------------------------
    def has_vertex(self, vertex: Vertex) -> bool:
        """Whether ``vertex`` is in the graph.

        The default implementation scans :meth:`vertices`; concrete graphs
        backed by a mapping override it with an O(1) membership test.
        """
        return vertex in self.vertices()

    def degree(self, vertex: Vertex) -> int:
        """Number of neighbours of ``vertex``."""
        return len(self.neighbours(vertex))

    def csr(self) -> CSRLayout:
        """A CSR snapshot of the graph for the hop engine.

        The default keys one cached :class:`~repro.walks.csr.CSRLayout` on
        the graph's ``version`` attribute when it has one (rebuilding after
        any mutation) and caches it forever on static graphs.  Mutable
        graphs with finer-grained invalidation (the overlay) override this.
        """
        version = getattr(self, "version", None)
        cached = getattr(self, "_csr_cache", None)
        if cached is not None and cached[0] == version:
            return cached[1]
        layout = CSRLayout.build(self, weights_version=version)
        self._csr_cache = (version, layout)
        return layout

    def sample_weighted_vertex(self, rng: random.Random) -> Vertex:
        """A vertex sampled with probability ``weight(v) / total_weight``.

        Consumes exactly one ``rng.random()`` draw.  The default rebuilds the
        weight list on every call and delegates to
        :func:`repro.rng.choice_weighted` (the single weighted-selection
        implementation); graphs with mutation tracking override it with a
        cached cumulative-weight table that selects the same vertex for the
        same draw.  Raises ``ValueError`` on an empty graph or when no vertex
        has positive weight.
        """
        vertices = list(self.vertices())
        if not vertices:
            raise ValueError("cannot sample a vertex of an empty graph")
        weights = [max(0.0, self.weight(vertex)) for vertex in vertices]
        if sum(weights) <= 0.0:
            raise ValueError("graph has no positive vertex weight")
        return choice_weighted(rng, vertices, weights)

    def vertex_count(self) -> int:
        """Number of vertices."""
        return len(self.vertices())

    def average_degree(self) -> float:
        """Mean vertex degree (0 for an empty graph)."""
        vertices = self.vertices()
        if not vertices:
            return 0.0
        return sum(self.degree(vertex) for vertex in vertices) / len(vertices)

    def total_weight(self) -> float:
        """Sum of all vertex weights (for NOW: the number of nodes ``n``)."""
        return float(sum(self.weight(vertex) for vertex in self.vertices()))

    def max_weight(self) -> float:
        """Largest vertex weight (used by the biased walk's acceptance test)."""
        weights = [self.weight(vertex) for vertex in self.vertices()]
        return max(weights) if weights else 0.0

    def target_distribution(self) -> Dict[Vertex, float]:
        """The ``weight(v) / total_weight`` distribution the biased walk targets."""
        total = self.total_weight()
        if total <= 0:
            return {vertex: 0.0 for vertex in self.vertices()}
        return {vertex: self.weight(vertex) / total for vertex in self.vertices()}


class MappingGraph(WalkableGraph):
    """Dict-backed :class:`WalkableGraph` (adjacency mapping + weight mapping)."""

    def __init__(
        self,
        adjacency: Mapping[Vertex, Iterable[Vertex]],
        weights: Mapping[Vertex, float] = None,
    ) -> None:
        self._adjacency: Dict[Vertex, List[Vertex]] = {
            vertex: list(neighbours) for vertex, neighbours in adjacency.items()
        }
        if weights is None:
            weights = {vertex: 1.0 for vertex in self._adjacency}
        self._weights: Dict[Vertex, float] = dict(weights)
        missing = set(self._adjacency) - set(self._weights)
        if missing:
            raise ValueError(f"weights missing for vertices: {sorted(missing)!r}")

    def vertices(self) -> Sequence[Vertex]:
        return list(self._adjacency.keys())

    def has_vertex(self, vertex: Vertex) -> bool:
        return vertex in self._adjacency

    def neighbours(self, vertex: Vertex) -> Sequence[Vertex]:
        return list(self._adjacency.get(vertex, ()))

    def degree(self, vertex: Vertex) -> int:
        return len(self._adjacency.get(vertex, ()))

    def weight(self, vertex: Vertex) -> float:
        return float(self._weights.get(vertex, 0.0))
