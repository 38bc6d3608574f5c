"""``KnowledgeGraph.honest_adjacent_diameter`` against an all-pairs BFS.

The graph computes the diameter by bitset ball growth.  The reference below
is the definition run literally: one BFS per node over the edges with at
least one honest endpoint, the worst distance over ordered pairs, and
``len(graph)`` for a pair that cannot reach each other.  Hypothesis drives
both over random graphs, disconnected ones and isolated nodes included,
with honest sets that may name nodes outside the graph.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Set

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.network.topology import KnowledgeGraph


def reference_distances(graph: KnowledgeGraph, start: int, honest: Set[int]) -> Dict[int, int]:
    """BFS distances from ``start`` over edges adjacent to an honest node."""
    distances = {start: 0}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for neighbour in graph.neighbours(current):
            usable = current in honest or neighbour in honest
            if usable and neighbour not in distances:
                distances[neighbour] = distances[current] + 1
                queue.append(neighbour)
    return distances


def reference_diameter(graph: KnowledgeGraph, honest: Set[int], nodes) -> int:
    """All-pairs BFS: the worst distance, ``len(nodes)`` for an unreachable pair."""
    if len(nodes) < 2:
        return 0
    worst = 0
    for start in nodes:
        distances = reference_distances(graph, start, honest)
        for node in nodes:
            if node != start:
                worst = max(worst, distances.get(node, len(nodes)))
    return worst


@st.composite
def graphs(draw, max_nodes: int = 14):
    """``(graph, honest, nodes)``: any node count, any edges, any honest set.

    Node ids are spread out (``3 * i + 1``) and inserted in a drawn order,
    so neither the ids nor the insertion order line up with positions.  The
    honest set is drawn from a wider range than the nodes, so it may name
    nodes the graph does not hold.
    """
    count = draw(st.integers(0, max_nodes))
    nodes = draw(st.permutations([3 * i + 1 for i in range(count)]))
    graph = KnowledgeGraph()
    for node in nodes:
        graph.add_node(node)
    if count >= 2:
        pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
        for first, second in draw(st.lists(pairs, max_size=3 * count)):
            graph.connect(first, second)
    honest = draw(st.sets(st.integers(0, 3 * max_nodes + 6)))
    return graph, honest, nodes


class TestDiameterMatchesAllPairsBFS:
    @given(graphs())
    @settings(max_examples=400, deadline=None)
    def test_random_graphs(self, case):
        graph, honest, nodes = case
        assert graph.honest_adjacent_diameter(honest) == reference_diameter(graph, honest, nodes)

    @given(graphs(max_nodes=8), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_isolated_nodes_disconnect(self, case, extra):
        """A node with no usable edge leaves some pair unreachable: ``len(graph)``."""
        graph, honest, nodes = case
        for offset in range(extra):
            graph.add_node(-1 - offset)
        nodes = list(nodes) + [-1 - offset for offset in range(extra)]
        assume(len(graph) >= 2)
        assert graph.honest_adjacent_diameter(honest) == len(graph)
        assert reference_diameter(graph, honest, nodes) == len(graph)

    @given(st.integers(3, 12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_byzantine_edges_are_not_usable(self, size, data):
        """A path whose middle edge joins two Byzantine nodes is cut there;
        a chord through an honest node restores the distance it offers."""
        graph = KnowledgeGraph()
        for node in range(size - 1):
            graph.connect(node, node + 1)
        cut = data.draw(st.integers(0, size - 2))
        honest = set(range(size)) - {cut, cut + 1}
        assert graph.honest_adjacent_diameter(honest) == size
        assert reference_diameter(graph, honest, list(range(size))) == size
        graph.connect(cut, size + 5)
        graph.connect(size + 5, cut + 1)
        honest.add(size + 5)
        nodes = list(range(size)) + [size + 5]
        expected = reference_diameter(graph, honest, nodes)
        assert expected < len(graph)
        assert graph.honest_adjacent_diameter(honest) == expected

    def test_tiny_graphs(self):
        empty = KnowledgeGraph()
        assert empty.honest_adjacent_diameter(set()) == 0
        single = KnowledgeGraph()
        single.add_node(5)
        assert single.honest_adjacent_diameter({5, 6}) == 0
        pair = KnowledgeGraph()
        pair.add_node(1)
        pair.add_node(2)
        assert pair.honest_adjacent_diameter({1, 2}) == 2  # unreachable: len(graph)
        pair.connect(1, 2)
        assert pair.honest_adjacent_diameter({1}) == 1
        assert pair.honest_adjacent_diameter({2}) == 1
        assert pair.honest_adjacent_diameter(set()) == 2  # a Byzantine-only edge
        assert pair.honest_adjacent_diameter({7, 8}) == 2  # honest names outside the graph
