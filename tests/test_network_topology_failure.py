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
        assert graph.knows(1, 2)
        assert graph.knows(2, 1)

    def test_self_connection_ignored(self):
        graph = KnowledgeGraph()
        graph.add_node(1)
        graph.connect(1, 1)
        assert graph.degree(1) == 0

    def test_disconnect(self):
        graph = KnowledgeGraph()
        graph.connect(1, 2)
        graph.disconnect(1, 2)
        assert not graph.knows(1, 2)

    def test_remove_node_clears_edges(self):
        graph = ring(4)
        graph.remove_node(0)
        assert 0 not in graph
        assert not graph.knows(1, 0)
        assert not graph.knows(3, 0)

    def test_remove_unknown_node_raises(self):
        with pytest.raises(UnknownNodeError):
            KnowledgeGraph().remove_node(9)

    def test_connect_clique(self):
        graph = KnowledgeGraph()
        graph.connect_clique([1, 2, 3, 4])
        for first in (1, 2, 3, 4):
            assert graph.degree(first) == 3

    def test_connect_bipartite(self):
        graph = KnowledgeGraph()
        graph.connect_bipartite([1, 2], [3, 4, 5])
        assert graph.degree(1) == 3
        assert graph.degree(4) == 2
        assert not graph.knows(1, 2)


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

    def test_is_connected_true_for_ring(self):
        assert ring(6).is_connected()

    def test_is_connected_false_for_split_graph(self):
        graph = KnowledgeGraph()
        graph.connect(1, 2)
        graph.connect(3, 4)
        assert not graph.is_connected()

    def test_empty_graph_is_connected(self):
        assert KnowledgeGraph().is_connected()

    def test_bfs_distances_on_ring(self):
        graph = ring(6)
        distances = graph.bfs_distances(0)
        assert distances[3] == 3
        assert distances[5] == 1

    def test_bfs_distances_restricted(self):
        graph = ring(6)
        distances = graph.bfs_distances(0, restrict_to={0, 1, 2})
        assert 3 not in distances
        assert distances[2] == 2

    def test_edges_iteration_sorted_pairs(self):
        graph = ring(4)
        for first, second in graph.edges():
            assert first < second

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
