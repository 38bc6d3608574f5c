"""Unit tests for the knowledge graph."""

from __future__ import annotations

import pytest

from repro.errors import UnknownNodeError
from repro.network.topology import KnowledgeGraph


def ring(size: int) -> KnowledgeGraph:
    graph = KnowledgeGraph()
    for index in range(size):
        graph.connect(index, (index + 1) % size)
    return graph


class TestKnowledgeGraphMutation:
    def test_add_node_idempotent(self):
        graph = KnowledgeGraph()
        graph.add_node(1)
        graph.add_node(1)
        assert len(graph) == 1

    def test_connect_adds_missing_nodes(self):
        graph = KnowledgeGraph()
        graph.connect(1, 2)
        assert graph.neighbours(1) == {2}
        assert graph.neighbours(2) == {1}

    def test_self_connection_ignored(self):
        graph = KnowledgeGraph()
        graph.add_node(1)
        graph.connect(1, 1)
        assert graph.neighbours(1) == set()

    def test_connect_is_idempotent(self):
        graph = ring(4)
        graph.connect(0, 1)
        graph.connect(1, 0)
        assert graph.edge_count() == 4
        assert graph.neighbours(0) == {1, 3}


class TestKnowledgeGraphQueries:
    def test_edge_count(self):
        assert ring(5).edge_count() == 5

    def test_neighbours_are_copies(self):
        graph = ring(4)
        neighbours = graph.neighbours(0)
        neighbours.add(99)
        assert 99 not in graph.neighbours(0)

    def test_unknown_neighbours_raises(self):
        with pytest.raises(UnknownNodeError):
            ring(3).neighbours(7)

    def test_honest_adjacent_diameter_all_honest(self):
        graph = ring(6)
        honest = set(range(6))
        assert graph.honest_adjacent_diameter(honest) == 3

    def test_honest_adjacent_diameter_byzantine_cut(self):
        """Edges between two Byzantine nodes do not count."""
        graph = KnowledgeGraph()
        # path 0 - 1 - 2 - 3 where 1 and 2 are Byzantine: the 1-2 edge is unusable.
        graph.connect(0, 1)
        graph.connect(1, 2)
        graph.connect(2, 3)
        diameter_all_honest = graph.honest_adjacent_diameter({0, 1, 2, 3})
        diameter_with_byz = graph.honest_adjacent_diameter({0, 3})
        assert diameter_all_honest == 3
        assert diameter_with_byz >= 4  # 0 cannot reach 3 through the 1-2 edge

    def test_honest_adjacent_diameter_of_trivial_graphs_is_zero(self):
        graph = KnowledgeGraph()
        assert graph.honest_adjacent_diameter(set()) == 0
        graph.add_node(1)
        assert graph.honest_adjacent_diameter({1}) == 0

    def test_unreachable_pair_counts_as_graph_size(self):
        graph = ring(3)
        graph.add_node(9)
        assert graph.honest_adjacent_diameter({0, 1, 2, 9}) == len(graph) == 4
