"""The knowledge graph: who knows (and can therefore message) whom.

The paper's network is *reconfigurable*: a node can send a message to any
node it knows through a private channel, and connections are added or removed
as nodes learn or forget identifiers.  :class:`KnowledgeGraph` models this as
an undirected graph over node identifiers.  The initialization phase's
discovery algorithm runs on this graph, and its diameter (restricted to edges
adjacent to at least one honest node) bounds the discovery round complexity.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
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
        nodes, and ``len(graph)`` (a safe upper bound) for a disconnected one.
        Computed by ball growth over int bitsets: each node's ball starts as
        its own bit and each level ORs in its usable neighbours' balls, so
        the first level with every ball full is the diameter, and a level
        that changes nothing first means a disconnected graph.  O(D * E)
        n-bit ORs for diameter D, in place of one BFS per node.
        """
        adjacency = self._adjacency
        size = len(adjacency)
        if size < 2:
            return 0
        index = {node: position for position, node in enumerate(adjacency)}
        rows = [
            [index[other] for other in neighbours if node in honest or other in honest]
            for node, neighbours in adjacency.items()
        ]
        full, balls, level = (1 << size) - 1, [1 << position for position in range(size)], 0
        while balls.count(full) < size:
            grown = [reduce(or_, map(balls.__getitem__, row), ball) for ball, row in zip(balls, rows)]
            if grown == balls:
                return size
            balls, level = grown, level + 1
        return level
