"""The knowledge graph: who knows (and can therefore message) whom.

The paper's network is *reconfigurable*: a node can send a message to any
node it knows through a private channel, and connections are added or removed
as nodes learn or forget identifiers.  :class:`KnowledgeGraph` models this as
an undirected graph over node identifiers.  The initialization phase's
discovery algorithm runs on this graph, and its diameter (restricted to edges
adjacent to at least one honest node) bounds the discovery round complexity.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Set

from ..errors import UnknownNodeError
from .node import NodeId


class KnowledgeGraph:
    """Undirected graph of "knows the identifier of" relations."""

    def __init__(self) -> None:
        self._adjacency: Dict[NodeId, Set[NodeId]] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node_id: NodeId) -> None:
        """Insert ``node_id`` with no neighbours (idempotent)."""
        self._adjacency.setdefault(node_id, set())

    def connect(self, first: NodeId, second: NodeId) -> None:
        """Make ``first`` and ``second`` know each other (adds missing nodes)."""
        if first == second:
            return
        self.add_node(first)
        self.add_node(second)
        self._adjacency[first].add(second)
        self._adjacency[second].add(first)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def neighbours(self, node_id: NodeId) -> Set[NodeId]:
        """Return the set of nodes known by ``node_id``."""
        if node_id not in self._adjacency:
            raise UnknownNodeError(f"node {node_id} not in knowledge graph")
        return set(self._adjacency[node_id])

    def edge_count(self) -> int:
        """Total number of undirected edges."""
        return sum(len(neigh) for neigh in self._adjacency.values()) // 2

    def honest_adjacent_diameter(self, honest: Set[NodeId]) -> int:
        """Diameter counting only edges adjacent to at least one honest node.

        This is the quantity bounding the discovery algorithm's round
        complexity in the paper.  Returns 0 for graphs with fewer than two
        nodes; unreachable pairs contribute ``len(graph)`` (a safe upper
        bound) so disconnected inputs are visible to callers.
        """
        nodes = list(self._adjacency)
        if len(nodes) < 2:
            return 0
        worst = 0
        for start in nodes:
            distances = self._bfs_honest_adjacent(start, honest)
            for node in nodes:
                if node == start:
                    continue
                worst = max(worst, distances.get(node, len(nodes)))
        return worst

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _bfs_honest_adjacent(self, start: NodeId, honest: Set[NodeId]) -> Dict[NodeId, int]:
        distances: Dict[NodeId, int] = {start: 0}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for neighbour in self._adjacency[current]:
                usable = current in honest or neighbour in honest
                if usable and neighbour not in distances:
                    distances[neighbour] = distances[current] + 1
                    queue.append(neighbour)
        return distances
