"""Mutable, vertex-weighted overlay graph.

:class:`OverlayGraph` is the data structure on which OVER operates: an
undirected graph whose vertices are cluster identifiers and whose vertex
weights are the current cluster sizes (used by the biased CTRW).  It
implements :class:`repro.walks.interface.WalkableGraph` so walks can run on
it directly.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import UnknownClusterError
from ..structures import LazyMaxTracker
from ..walks.csr import CSRLayout
from ..walks.interface import WalkableGraph

ClusterId = int


class OverlayGraph(WalkableGraph):
    """Undirected graph over cluster identifiers with mutable vertex weights.

    Aggregates the walk machinery reads on every sample — edge count, total
    weight, maximum weight, average degree — are maintained incrementally
    (the maximum via a lazy max-heap), so a ``randCl`` draw costs O(1)
    aggregate work instead of a sweep over all vertices.

    One shared CSR snapshot backs the walk fast path (see
    ``docs/ARCHITECTURE.md``): :meth:`csr` flattens the adjacency into a
    :class:`~repro.walks.csr.CSRLayout` (``indptr``/``indices`` plus degree
    reciprocals, weights and lazy cumulative-weight and neighbour-weight-sum
    rows).  Structural mutations (vertex/edge add/remove) invalidate it
    wholesale; weight updates are applied to it in place (O(1)).  The
    stationary-law :meth:`sample_weighted_vertex` draw, the integer tables
    of the engine's oracle draws and its neighbour-notification pricing are
    served from that one snapshot, and
    the hop engine (:mod:`repro.walks.kernel`) indexes it directly — there
    is no separate weight table to keep in sync.

    Determinism contract (``repro.trace`` relies on this): every enumeration
    an RNG draw can observe — :meth:`vertices`, :meth:`neighbours` and the
    cumulative-weight table — is in sorted
    vertex order, never raw set/dict order.  Set and dict iteration order
    depends on the full mutation history, which a state snapshot cannot
    reproduce; sorted order makes a restored graph behave bit-identically
    to the original under the same RNG stream.
    """

    def __init__(self) -> None:
        self._adjacency: Dict[ClusterId, Set[ClusterId]] = {}
        self._weights = LazyMaxTracker()
        self._edge_count: int = 0
        self._total_weight: float = 0.0
        # Walk fast-path CSR snapshot: dropped on structural mutation,
        # weight-patched in place by set_weight, rebuilt lazily by csr().
        self._csr: Optional[CSRLayout] = None
        self._structure_version: int = 0
        #: Monotonic mutation counter: bumped by every structural or weight
        #: change, letting walk-side caches key derived quantities (expected
        #: effort, segment durations) on graph identity + version.
        self.version: int = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self, cluster_id: ClusterId, weight: float = 1.0) -> None:
        """Insert ``cluster_id`` with the given weight (error if it already exists)."""
        if cluster_id in self._adjacency:
            raise UnknownClusterError(f"cluster {cluster_id} already present in the overlay")
        self._adjacency[cluster_id] = set()
        weight = float(weight)
        self._weights.set(cluster_id, weight)
        self._total_weight += weight
        self._invalidate_structure()

    def remove_vertex(self, cluster_id: ClusterId) -> Set[ClusterId]:
        """Remove ``cluster_id``; returns its former neighbours."""
        self._require(cluster_id)
        neighbours = self._adjacency.pop(cluster_id)
        for other in neighbours:
            self._adjacency[other].discard(cluster_id)
        self._edge_count -= len(neighbours)
        self._total_weight -= self._weights.get(cluster_id, 0.0)
        self._weights.discard(cluster_id)
        self._invalidate_structure()
        return neighbours

    def add_edge(self, first: ClusterId, second: ClusterId) -> bool:
        """Add an edge; returns ``False`` when it already existed or is a loop."""
        if first == second:
            return False
        self._require(first)
        self._require(second)
        if second in self._adjacency[first]:
            return False
        self._adjacency[first].add(second)
        self._adjacency[second].add(first)
        self._edge_count += 1
        self._invalidate_structure()
        return True

    def remove_edge(self, first: ClusterId, second: ClusterId) -> bool:
        """Remove an edge; returns ``False`` when it was absent."""
        self._require(first)
        self._require(second)
        if second not in self._adjacency[first]:
            return False
        self._adjacency[first].discard(second)
        self._adjacency[second].discard(first)
        self._edge_count -= 1
        self._invalidate_structure()
        return True

    def set_weight(self, cluster_id: ClusterId, weight: float) -> None:
        """Update the weight (cluster size) of ``cluster_id``.

        The live CSR snapshot (when built) is patched in place — an O(1)
        write plus marking its cumulative row dirty — so the engine's
        per-event weight churn never forces a structural rebuild.
        """
        self._require(cluster_id)
        weight = float(weight)
        self._total_weight += weight - self._weights[cluster_id]
        self._weights.set(cluster_id, weight)
        self.version += 1
        if self._csr is not None:
            self._csr.set_weight(cluster_id, weight, weights_version=self.version)

    def _invalidate_structure(self) -> None:
        """Drop the CSR snapshot after a structural (vertex/edge) mutation."""
        self._csr = None
        self._structure_version += 1
        self.version += 1

    # ------------------------------------------------------------------
    # WalkableGraph interface
    # ------------------------------------------------------------------
    def vertices(self) -> Sequence[ClusterId]:
        return sorted(self._adjacency.keys())

    def neighbours(self, vertex: ClusterId) -> Sequence[ClusterId]:
        self._require(vertex)
        return sorted(self._adjacency[vertex])

    def csr(self) -> CSRLayout:
        """The current CSR snapshot of the overlay (rebuilt lazily).

        Structural mutations drop the snapshot; weight mutations patch it in
        place, so between structural changes every caller — notification
        pricing, oracle draws and the hop engine — shares one flat layout.
        """
        csr = self._csr
        if csr is None:
            csr = CSRLayout.build(
                self,
                structure_version=self._structure_version,
                weights_version=self.version,
            )
            self._csr = csr
        elif csr.weights_version != self.version:
            # Only reachable when `version` was assigned directly (snapshot
            # restore); mutations keep the stamps in sync themselves.
            csr.refresh_weights(self, weights_version=self.version)
        return csr

    def weight(self, vertex: ClusterId) -> float:
        self._require(vertex)
        return self._weights[vertex]

    def sample_weighted_vertex(self, rng: random.Random) -> ClusterId:
        """A vertex drawn from ``weight(v) / total_weight`` in amortised O(1).

        :meth:`CSRLayout.sample_row <repro.walks.csr.CSRLayout.sample_row>`
        on the current snapshot: one ``rng.random()`` draw against its
        cumulative-weight row (rebuilt lazily after weight mutations), none
        on an empty or weightless overlay.
        """
        csr = self.csr()
        return csr.vertices[csr.sample_row(rng)]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, cluster_id: ClusterId) -> bool:
        return cluster_id in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def has_vertex(self, cluster_id: ClusterId) -> bool:
        """Whether ``cluster_id`` is an overlay vertex (O(1))."""
        return cluster_id in self._adjacency

    def has_edge(self, first: ClusterId, second: ClusterId) -> bool:
        """Whether the undirected edge ``{first, second}`` exists."""
        return first in self._adjacency and second in self._adjacency[first]

    def degree(self, vertex: ClusterId) -> int:
        self._require(vertex)
        return len(self._adjacency[vertex])

    def max_degree(self) -> int:
        """Largest vertex degree (0 for an empty overlay)."""
        if not self._adjacency:
            return 0
        return max(len(neigh) for neigh in self._adjacency.values())

    def edge_count(self) -> int:
        """Number of undirected edges (O(1), maintained incrementally)."""
        return self._edge_count

    def vertex_count(self) -> int:
        """Number of vertices (O(1))."""
        return len(self._adjacency)

    def average_degree(self) -> float:
        """Mean vertex degree (O(1); 0 for an empty overlay)."""
        if not self._adjacency:
            return 0.0
        return 2.0 * self._edge_count / len(self._adjacency)

    def total_weight(self) -> float:
        """Sum of all vertex weights (O(1), maintained incrementally)."""
        return float(self._total_weight)

    def max_weight(self) -> float:
        """Largest vertex weight (amortised O(1) via a lazy max-heap)."""
        return self._weights.max()

    def edges(self) -> Iterator[Tuple[ClusterId, ClusterId]]:
        """Iterate over undirected edges as ``(small_id, large_id)`` pairs."""
        for vertex, neighbours in self._adjacency.items():
            for other in neighbours:
                if vertex < other:
                    yield (vertex, other)

    def is_connected(self) -> bool:
        """Whether the overlay is a single connected component."""
        if not self._adjacency:
            return True
        start = next(iter(self._adjacency))
        seen = {start}
        frontier: List[ClusterId] = [start]
        while frontier:
            current = frontier.pop()
            for neighbour in self._adjacency[current]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(self._adjacency)

    def adjacency_mapping(self) -> Dict[ClusterId, List[ClusterId]]:
        """A plain-dict copy of the adjacency (used by the analysis helpers)."""
        return {vertex: sorted(neigh) for vertex, neigh in self._adjacency.items()}

    def copy(self) -> "OverlayGraph":
        """Deep copy of the overlay (weights included)."""
        clone = OverlayGraph()
        for vertex in self._adjacency:
            clone.add_vertex(vertex, self._weights[vertex])
        for first, second in self.edges():
            clone.add_edge(first, second)
        return clone

    # ------------------------------------------------------------------
    # Checkpoint serialisation (repro.trace)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """JSON-ready snapshot: vertices+weights, edges and the version counter.

        Vertices and edges are listed in sorted order; together with the
        sorted-enumeration contract of this class, rebuilding from the
        snapshot yields a graph whose RNG-visible behaviour is bit-identical
        to the original's.
        """
        return {
            "vertices": [[vertex, self._weights[vertex]] for vertex in sorted(self._adjacency)],
            "edges": [list(edge) for edge in sorted(self.edges())],
            "version": self.version,
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, object]) -> "OverlayGraph":
        """Rebuild a graph from :meth:`snapshot_state` output."""
        graph = cls()
        for vertex, weight in data["vertices"]:
            graph.add_vertex(vertex, float(weight))
        for first, second in data["edges"]:
            graph.add_edge(first, second)
        # Restore the mutation counter so version-keyed caches on the walk
        # side key exactly as they would have in the original process.
        graph.version = int(data["version"])
        return graph

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require(self, cluster_id: ClusterId) -> None:
        if cluster_id not in self._adjacency:
            raise UnknownClusterError(f"cluster {cluster_id} is not in the overlay")
