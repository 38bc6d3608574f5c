"""Property-based tests (hypothesis) for the core data structures.

These exercise the cluster registry, the overlay graph and the knowledge
graph with arbitrary operation sequences and assert the structural invariants
the protocol code relies on (index consistency, symmetry of edges, partition
validity), independently of any particular protocol run.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.cluster import ClusterRegistry
from repro.network.topology import KnowledgeGraph
from repro.overlay.graph import OverlayGraph


# ----------------------------------------------------------------------
# ClusterRegistry: arbitrary move/swap sequences keep the partition valid.
# ----------------------------------------------------------------------
@st.composite
def registry_and_operations(draw):
    cluster_count = draw(st.integers(min_value=2, max_value=5))
    members_per_cluster = draw(st.integers(min_value=1, max_value=6))
    operations = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["move", "swap"]),
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=10_000),
            ),
            max_size=30,
        )
    )
    return cluster_count, members_per_cluster, operations


@given(registry_and_operations())
@settings(max_examples=60, deadline=None)
def test_cluster_registry_partition_invariant(data):
    cluster_count, members_per_cluster, operations = data
    registry = ClusterRegistry()
    node_id = 0
    cluster_ids = []
    for _ in range(cluster_count):
        members = list(range(node_id, node_id + members_per_cluster))
        node_id += members_per_cluster
        cluster_ids.append(registry.create_cluster(members).cluster_id)
    all_nodes = set(range(node_id))

    for kind, raw_node, raw_target in operations:
        node = raw_node % node_id
        target = cluster_ids[raw_target % len(cluster_ids)]
        source = registry.cluster_of(node)
        if kind == "move":
            registry.move_member(node, target)
        else:
            target_members = registry.get(target).member_list()
            if not target_members or source == target:
                continue
            partner = target_members[raw_target % len(target_members)]
            registry.swap_members(source, node, target, partner)

    # Partition invariant: every node in exactly one cluster, indexes consistent.
    seen = set()
    for cluster in registry.clusters():
        for member in cluster.members:
            assert member not in seen
            assert registry.cluster_of(member) == cluster.cluster_id
            seen.add(member)
    assert seen == all_nodes
    assert registry.total_nodes() == len(all_nodes)


# ----------------------------------------------------------------------
# OverlayGraph: edges stay symmetric, degrees match, removals clean up.
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["add_edge", "remove_edge", "remove_vertex"]),
            st.integers(min_value=0, max_value=11),
            st.integers(min_value=0, max_value=11),
        ),
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_overlay_graph_symmetry_invariant(operations):
    graph = OverlayGraph()
    for vertex in range(12):
        graph.add_vertex(vertex, weight=1.0)
    for kind, first, second in operations:
        if first not in graph or (kind != "remove_vertex" and second not in graph):
            continue
        if kind == "add_edge":
            graph.add_edge(first, second)
        elif kind == "remove_edge":
            graph.remove_edge(first, second)
        else:
            if len(graph) > 1:
                graph.remove_vertex(first)

    vertices = set(graph.vertices())
    edge_endpoint_count = 0
    for vertex in vertices:
        for neighbour in graph.neighbours(vertex):
            assert neighbour in vertices  # no dangling endpoints
            assert graph.has_edge(neighbour, vertex)  # symmetry
            edge_endpoint_count += 1
    assert edge_endpoint_count == 2 * graph.edge_count()
    if vertices:
        assert graph.max_degree() == max(graph.degree(v) for v in vertices)


# ----------------------------------------------------------------------
# KnowledgeGraph: connect keeps the "knows" relation symmetric.
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=9),
        ),
        max_size=50,
    )
)
@settings(max_examples=60, deadline=None)
def test_knowledge_graph_symmetry(operations):
    graph = KnowledgeGraph()
    for first, second in operations:
        graph.connect(first, second)
    for node in range(10):
        if node not in graph:
            continue
        assert node not in graph.neighbours(node)
        for neighbour in graph.neighbours(node):
            assert node in graph.neighbours(neighbour)
