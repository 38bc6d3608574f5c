"""Unit tests for clusters, the cluster registry, the node registry and the system state."""

from __future__ import annotations

import random
from bisect import bisect_right
from types import SimpleNamespace

import pytest

from repro.core.cluster import Cluster, ClusterRegistry
from repro.core.state import NodeRegistry, SystemState
from repro.errors import (
    ProtocolViolationError,
    UnknownClusterError,
    UnknownNodeError,
)
from repro.network.node import NodeRole
from repro.params import ProtocolParameters
from repro.walks.csr import Population


class TestCluster:
    def test_membership_basics(self):
        cluster = Cluster(cluster_id=1, members={1, 2, 3})
        assert len(cluster) == 3
        assert 2 in cluster
        assert cluster.member_list() == [1, 2, 3]

    def test_add_and_remove(self):
        cluster = Cluster(cluster_id=1)
        cluster.add_member(5)
        assert 5 in cluster
        cluster.remove_member(5)
        assert 5 not in cluster

    def test_duplicate_add_rejected(self):
        cluster = Cluster(cluster_id=1, members={5})
        with pytest.raises(ProtocolViolationError):
            cluster.add_member(5)

    def test_remove_missing_rejected(self):
        cluster = Cluster(cluster_id=1)
        with pytest.raises(UnknownNodeError):
            cluster.remove_member(5)

    def test_swap_member(self):
        cluster = Cluster(cluster_id=1, members=[1, 2])
        cluster.swap_member(1, 9)
        assert cluster.members == [9, 2]

    def test_swap_same_node_is_noop(self):
        cluster = Cluster(cluster_id=1, members=[1, 2])
        cluster.swap_member(1, 1)
        assert cluster.members == [1, 2]

    def test_slot_order(self):
        """A join appends a slot; a removal moves the last slot into the hole."""
        cluster = Cluster(cluster_id=1, members=[5, 3, 8])
        cluster.add_member(1)
        assert cluster.members == [5, 3, 8, 1]
        cluster.remove_member(3)
        assert cluster.members == [5, 1, 8]
        cluster.remove_member(8)
        assert cluster.members == [5, 1]
        assert cluster.member_list() == [1, 5]

    def test_duplicate_members_rejected(self):
        with pytest.raises(ProtocolViolationError):
            Cluster(cluster_id=1, members=[1, 2, 1])

    def test_swap_validations(self):
        cluster = Cluster(cluster_id=1, members={1, 2})
        with pytest.raises(UnknownNodeError):
            cluster.swap_member(7, 9)
        with pytest.raises(ProtocolViolationError):
            cluster.swap_member(1, 2)

    def test_snapshot_is_immutable_copy(self):
        cluster = Cluster(cluster_id=1, members={1, 2})
        snapshot = cluster.snapshot()
        cluster.add_member(3)
        assert snapshot == frozenset({1, 2})


class TestClusterRegistry:
    def test_create_and_lookup(self):
        registry = ClusterRegistry()
        cluster = registry.create_cluster([1, 2, 3])
        assert registry.get(cluster.cluster_id) is cluster
        assert registry.cluster_of(2) == cluster.cluster_id
        assert registry.contains_node(3)
        assert registry.total_nodes() == 3

    def test_fresh_ids_never_reused(self):
        registry = ClusterRegistry()
        first = registry.create_cluster([1])
        registry.dissolve_cluster(first.cluster_id)
        second = registry.create_cluster([2])
        assert second.cluster_id != first.cluster_id

    def test_explicit_cluster_id(self):
        registry = ClusterRegistry()
        cluster = registry.create_cluster([1], cluster_id=10)
        assert cluster.cluster_id == 10
        follow_up = registry.create_cluster([2])
        assert follow_up.cluster_id > 10

    def test_node_in_two_clusters_rejected(self):
        registry = ClusterRegistry()
        registry.create_cluster([1, 2])
        with pytest.raises(ProtocolViolationError):
            registry.create_cluster([2, 3])

    def test_add_remove_member_updates_index(self):
        registry = ClusterRegistry()
        cluster = registry.create_cluster([1, 2])
        registry.add_member(cluster.cluster_id, 3)
        assert registry.cluster_of(3) == cluster.cluster_id
        registry.remove_member(cluster.cluster_id, 1)
        assert not registry.contains_node(1)

    def test_add_member_already_assigned_rejected(self):
        registry = ClusterRegistry()
        first = registry.create_cluster([1])
        second = registry.create_cluster([2])
        with pytest.raises(ProtocolViolationError):
            registry.add_member(second.cluster_id, 1)

    def test_move_member(self):
        registry = ClusterRegistry()
        first = registry.create_cluster([1, 2])
        second = registry.create_cluster([3])
        registry.move_member(1, second.cluster_id)
        assert registry.cluster_of(1) == second.cluster_id
        assert 1 not in registry.get(first.cluster_id)

    def test_swap_members_across_clusters(self):
        registry = ClusterRegistry()
        first = registry.create_cluster([1, 2])
        second = registry.create_cluster([3, 4])
        registry.swap_members(first.cluster_id, 1, second.cluster_id, 3)
        assert registry.cluster_of(1) == second.cluster_id
        assert registry.cluster_of(3) == first.cluster_id
        assert registry.total_nodes() == 4

    def test_dissolve_cluster_unassigns_members(self):
        registry = ClusterRegistry()
        cluster = registry.create_cluster([1, 2])
        registry.dissolve_cluster(cluster.cluster_id)
        assert not registry.contains_node(1)
        with pytest.raises(UnknownClusterError):
            registry.get(cluster.cluster_id)

    def test_unknown_lookups_raise(self):
        registry = ClusterRegistry()
        with pytest.raises(UnknownClusterError):
            registry.get(5)
        with pytest.raises(UnknownNodeError):
            registry.cluster_of(5)

    def test_sizes_mapping(self):
        registry = ClusterRegistry()
        a = registry.create_cluster([1, 2, 3])
        b = registry.create_cluster([4])
        assert registry.sizes() == {a.cluster_id: 3, b.cluster_id: 1}


class TestNodeRegistry:
    def test_register_and_roles(self):
        registry = NodeRegistry()
        honest = registry.register()
        byz = registry.register(role=NodeRole.BYZANTINE)
        assert not registry.is_byzantine(honest.node_id)
        assert registry.is_byzantine(byz.node_id)
        assert registry.active_count() == 2
        assert registry.byzantine_fraction() == pytest.approx(0.5)

    def test_ids_are_unique_and_monotone(self):
        registry = NodeRegistry()
        ids = [registry.register().node_id for _ in range(10)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 10

    def test_explicit_id_registration(self):
        registry = NodeRegistry()
        registry.register(node_id=50)
        follow_up = registry.register()
        assert follow_up.node_id > 50
        with pytest.raises(UnknownNodeError):
            registry.register(node_id=50)

    def test_leave_and_reactivate(self):
        registry = NodeRegistry()
        node = registry.register()
        registry.mark_left(node.node_id, time_step=5)
        assert not registry.is_active(node.node_id)
        assert node.node_id not in registry.active_nodes()
        registry.reactivate(node.node_id, time_step=9)
        assert registry.is_active(node.node_id)

    def test_active_byzantine_excludes_departed(self):
        registry = NodeRegistry()
        byz = registry.register(role=NodeRole.BYZANTINE)
        registry.register(role=NodeRole.BYZANTINE)
        registry.mark_left(byz.node_id, time_step=1)
        assert byz.node_id not in registry.active_byzantine()
        assert len(registry.active_byzantine()) == 1

    def test_unknown_node_raises(self):
        registry = NodeRegistry()
        with pytest.raises(UnknownNodeError):
            registry.get(3)


class TestSystemState:
    def build_state(self):
        params = ProtocolParameters(max_size=1024, k=2.0, tau=0.1, epsilon=0.05)
        state = SystemState(parameters=params, rng=random.Random(0))
        honest = [state.nodes.register().node_id for _ in range(6)]
        byz = [state.nodes.register(role=NodeRole.BYZANTINE).node_id for _ in range(2)]
        state.clusters.create_cluster(honest[:3] + byz[:1])   # 1/4 corrupt
        state.clusters.create_cluster(honest[3:] + byz[1:])   # 1/4 corrupt
        return state

    def test_network_size_and_fractions(self):
        state = self.build_state()
        assert state.network_size == 8
        fractions = state.byzantine_fractions()
        assert all(value == pytest.approx(0.25) for value in fractions.values())
        assert state.worst_cluster_fraction() == pytest.approx(0.25)

    def test_compromise_detection_threshold(self):
        state = self.build_state()
        assert state.compromised_clusters() == []
        assert len(state.compromised_clusters(threshold=0.2)) == 2

    def test_overlay_weight_sync(self):
        state = self.build_state()
        cluster_ids = state.clusters.cluster_ids()
        state.overlay.bootstrap(cluster_ids, weights=[1.0, 1.0])
        state.sync_all_overlay_weights()
        for cluster_id in cluster_ids:
            assert state.overlay.graph.weight(cluster_id) == len(
                state.clusters.get(cluster_id)
            )

    def test_advance_time(self):
        state = self.build_state()
        assert state.advance_time() == 1
        assert state.advance_time() == 2
        assert state.time_step == 2


def _layout(registry, vertices):
    """A stand-in CSR layout: ``vertices`` as rows, weighted by cluster size."""
    cum, base, total = [], [], 0
    for vertex in vertices:
        base.append(total)
        total += len(registry.get(vertex))
        cum.append(total)
    rows = {vertex: row for row, vertex in enumerate(vertices)}
    return SimpleNamespace(
        vertices=list(vertices),
        row_of=rows.__getitem__,
        population=lambda: Population(cum, base, total),
    )


class _Recording(list):
    """A list that logs the indices it is read at."""

    def __init__(self, items):
        super().__init__(items)
        self.read = []

    def __getitem__(self, row):
        self.read.append(row)
        return super().__getitem__(row)


def _walks(layout, ends, cluster_ids):
    """A pass's ``walks``: round ``cluster_id``'s walks end on the clusters ``ends[cluster_id]``."""
    return [layout.row_of(end) for cluster_id in cluster_ids for end in ends[cluster_id]]


#: Range sizes on both sides of each power of two, where the ``getrandbits``
#: rejection draw changes its bit width.
DRAW_SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129]


class TestSwaps:
    """Swaps write slots in place, keep the node index, and emit no listener event."""

    class _Follower:
        def __init__(self):
            self.events = []

        def member_added(self, cluster_id, node_id):
            self.events.append(("added", cluster_id, node_id))

        def member_removed(self, cluster_id, node_id):
            self.events.append(("removed", cluster_id, node_id))

    def _registry(self):
        registry = ClusterRegistry()
        registry.create_cluster([1, 2], cluster_id=10)
        registry.create_cluster([3, 4], cluster_id=20)
        return registry

    def test_swap_writes_both_slots_and_the_index(self):
        registry = self._registry()
        listener = self._Follower()
        registry.add_listener(listener)
        registry.swap_members(10, 1, 20, 4)
        assert registry.get(10).members == [4, 2] and registry.get(20).members == [3, 1]
        assert registry.cluster_of(1) == 20 and registry.cluster_of(4) == 10
        assert listener.events == []
        registry.swap_members(10, 2, 10, 4)  # within one cluster: no change
        assert registry.get(10).members == [4, 2]

    def test_pass_swaps_slot_by_slot(self):
        registry = self._registry()
        registry.create_cluster([5, 6], cluster_id=30)
        layout = _layout(registry, [10, 20, 30])
        swaps, pairs, rounds = registry.exchange_pass(
            [10], layout, None, _walks(layout, {10: [20, 30]}, [10]), lambda slots: slots[1]
        )
        assert registry.get(10).members == [4, 6]
        assert registry.get(20).members == [3, 1] and registry.get(30).members == [5, 2]
        assert (swaps, pairs, [list(rows) for rows in rounds]) == (2, 4, [[1, 2]])
        assert registry.cluster_of(2) == 30 and registry.cluster_of(6) == 10

    def test_pass_exchanges_members_received_in_an_earlier_round(self):
        """Round 2's cluster swaps out the members round 1 gave it, and the
        pass's Byzantine moves reach the sink once, netted per cluster."""
        registry = self._registry()
        registry.create_cluster([5, 6], cluster_id=30)
        nodes = {node: True for node in range(1, 7)}
        moves = []
        registry.bind_roles(nodes, {1, 5}, moves.append)
        layout = _layout(registry, [10, 20, 30])
        ends = {10: [20, 20], 20: [30, 30]}
        swaps, pairs, rounds = registry.exchange_pass(
            [10, 20], layout, None, _walks(layout, ends, [10, 20]), lambda slots: slots[0]
        )
        # Round 1: 1 <-> 3, then 2 <-> 1 (20's first slot now holds 1).
        # Round 2: 2 <-> 5, then 4 <-> 2 (30's first slot now holds 2).
        assert registry.get(10).members == [3, 1]
        assert registry.get(20).members == [5, 2] and registry.get(30).members == [4, 6]
        assert {node: registry.cluster_of(node) for node in nodes} == {
            1: 10, 2: 20, 3: 10, 4: 30, 5: 20, 6: 30
        }
        assert (swaps, pairs, [list(rows) for rows in rounds]) == (4, 8, [[1], [2]])
        assert moves == [{20: 1, 30: -1}]

    def test_pass_keeps_the_swaps_before_a_refusal(self):
        registry = self._registry()
        registry.get(10).members[1] = 99  # a slot the node index does not know
        layout = _layout(registry, [10, 20])
        with pytest.raises(UnknownNodeError, match="99"):
            registry.exchange_pass(
                [10], layout, None, _walks(layout, {10: [20, 20]}, [10]), lambda s: s[-1]
            )
        assert registry.get(10).members == [4, 99] and registry.get(20).members == [3, 1]
        assert not registry.contains_node(99)

    def test_partner_whose_slot_count_is_not_its_weight_is_refused(self):
        registry = self._registry()
        layout = _layout(registry, [10, 20])
        registry.get(20).members.append(5)  # a slot the layout's weights do not count
        with pytest.raises(ProtocolViolationError, match="overlay weight"):
            registry.exchange_pass(
                [10], layout, random.Random(1).getrandbits, _walks(layout, {10: [20, 20]}, [10])
            )
        assert registry.get(10).members == [1, 2] and registry.get(20).members == [3, 4, 5]

    def test_wrong_weight_partner_is_refused_at_its_first_draw_in_a_later_round(self):
        """A partner is checked when the pass first draws it, not before:
        round 1's swaps stay made, and round 2 refuses before touching it."""
        registry = self._registry()
        registry.create_cluster([5, 6], cluster_id=30)
        nodes = {node: True for node in range(1, 8)}
        moves = []
        registry.bind_roles(nodes, {3}, moves.append)
        layout = _layout(registry, [10, 20, 30])
        registry.get(30).members.append(7)  # a slot the layout's weights do not count
        ends = {10: [20, 20], 20: [30, 30]}
        with pytest.raises(ProtocolViolationError, match="cluster 30 has 3 members"):
            registry.exchange_pass(
                [10, 20], layout, None, _walks(layout, ends, [10, 20]), lambda s: s[0]
            )
        assert registry.get(10).members == [3, 1] and registry.get(20).members == [2, 4]
        assert registry.get(30).members == [5, 6, 7]
        assert moves == [{20: -1, 10: 1}]

    def test_pass_counts_its_rounds_and_swaps(self):
        """The diagnostic counters add each pass's rounds and made swaps,
        a refused pass's too."""
        registry = self._registry()
        registry.create_cluster([5, 6], cluster_id=30)
        layout = _layout(registry, [10, 20, 30])
        ends = {10: [20, 10], 20: [30, 30], 30: [20, 10]}
        registry.exchange_pass(
            [10, 20], layout, None, _walks(layout, ends, [10, 20]), lambda s: s[0]
        )
        assert (registry.exchange_round_count, registry.swap_count) == (2, 3)
        registry.get(10).members[1] = 99  # a slot the node index does not know
        with pytest.raises(UnknownNodeError, match="99"):
            registry.exchange_pass([30], layout, None, _walks(layout, ends, [30]), lambda s: s[-1])
        assert (registry.exchange_round_count, registry.swap_count) == (3, 4)

    @pytest.mark.parametrize("oracle", [True, False])
    def test_partner_is_resolved_once_per_pass(self, oracle):
        """Both rounds swap with cluster 30; its row is resolved once."""
        registry = self._registry()
        registry.create_cluster([5, 6], cluster_id=30)
        layout = _layout(registry, [10, 20, 30])
        layout.vertices = _Recording(layout.vertices)
        if oracle:
            units = iter([4, 5, 4, 5])  # cluster 30 holds units 4 and 5
            registry.exchange_pass([10, 20], layout, lambda bits: next(units))
        else:
            ends = {10: [30, 30], 20: [30, 30]}
            registry.exchange_pass(
                [10, 20], layout, None, _walks(layout, ends, [10, 20]), lambda s: s[0]
            )
        assert layout.vertices.read == [2]
        assert registry.get(30).members == ([3, 4] if oracle else [4, 6])

    def test_join_sized_pass_touches_only_the_rows_it_draws(self):
        """One round at many clusters resolves only the partner rows its
        draws name: no per-row work over the rest of the layout."""
        registry = ClusterRegistry()
        for cluster_id in range(2000):
            registry.create_cluster([2 * cluster_id, 2 * cluster_id + 1], cluster_id=cluster_id)
        layout = _layout(registry, range(2000))
        layout.vertices = _Recording(layout.vertices)
        cum, _, total = layout.population()
        twin = random.Random(4)
        drawn = {bisect_right(cum, twin.randrange(total)) for _ in range(2)} - {0}
        swaps, _, rounds = registry.exchange_pass([0], layout, random.Random(4).getrandbits)
        assert sorted(layout.vertices.read) == sorted(drawn) == sorted(rounds[0])
        assert swaps == len(drawn)

    @pytest.mark.parametrize("size", DRAW_SIZES)
    def test_oracle_draw_names_the_partner_and_its_member(self, size):
        """Under oracle walks one ``randrange(n)`` over the population's units
        names both the partner row and the member it gives up; a draw in
        the exchanging cluster's own units leaves the member in place."""
        registry = ClusterRegistry()
        registry.create_cluster([-1], cluster_id=0)
        registry.create_cluster(range(size), cluster_id=1)
        layout = _layout(registry, [0, 1])
        stream, twin = random.Random(size), random.Random(size)
        for _ in range(200):
            expected = registry.get(1).members[:]
            unit = twin.randrange(size + 1)
            outgoing = registry.get(0).members[0]
            registry.exchange_pass([0], layout, stream.getrandbits)
            stays = unit == 0
            assert registry.get(0).members[0] == (outgoing if stays else expected[unit - 1])
        assert stream.getstate() == twin.getstate()

    @pytest.mark.parametrize("size", DRAW_SIZES)
    def test_simulated_pick_draws_as_randrange(self, size):
        """Under simulated walks the partner gives up slot ``randrange(size)``,
        drawn inline with ``getrandbits``: the same member and stream state
        as ``randrange`` on a twin stream."""
        registry = ClusterRegistry()
        registry.create_cluster([-1], cluster_id=0)
        registry.create_cluster(range(size), cluster_id=1)
        layout = _layout(registry, [0, 1])
        stream, twin = random.Random(size), random.Random(size)
        for _ in range(200):
            expected = registry.get(1).members[twin.randrange(size)]
            registry.exchange_pass([0], layout, stream.getrandbits, _walks(layout, {0: [1]}, [0]))
            assert registry.get(0).members == [expected]
        assert stream.getstate() == twin.getstate()

    @pytest.mark.parametrize(
        "first_node, second_node, error",
        [
            (99, 3, UnknownNodeError),  # the outgoing node is not in the first cluster
            (1, 2, ProtocolViolationError),  # the incoming node is already in the first
            (1, 99, UnknownNodeError),  # the incoming node is not in the second cluster
            (1, 5, UnknownNodeError),  # indexed in the second cluster, missing from its slots
        ],
    )
    def test_refused_swap_changes_nothing(self, first_node, second_node, error):
        """Every check runs before either side changes: the slots and the node
        index are left as they were."""
        registry = self._registry()
        registry._node_to_cluster[5] = 20  # corrupt: indexed in 20, in no slot

        def observed():
            slots = [list(registry.get(cid).members) for cid in (10, 20)]
            nodes = (1, 2, 3, 4, 5, 99)
            return slots, [registry.contains_node(node) and registry.cluster_of(node) for node in nodes]

        before = observed()
        with pytest.raises(error):
            registry.swap_members(10, first_node, 20, second_node)
        assert observed() == before

    def test_corruption_counts_exact_under_swaps(self, small_params):
        """Swap accounting agrees with a from-scratch rebuild for every role mix."""
        state = SystemState(parameters=small_params, rng=random.Random(4))
        roles = [NodeRole.HONEST, NodeRole.BYZANTINE] * 4
        for index, role in enumerate(roles):
            state.nodes.register(role=role, node_id=index)
        state.clusters.create_cluster([0, 1, 2, 3], cluster_id=0)
        state.clusters.create_cluster([4, 5, 6, 7], cluster_id=1)
        rng = random.Random(9)
        for _ in range(50):
            first = rng.choice(sorted(state.clusters.get(0).members))
            second = rng.choice(sorted(state.clusters.get(1).members))
            state.clusters.swap_members(0, first, 1, second)
            observed = state.byzantine_fractions()
            for cluster_id in (0, 1):
                members = state.clusters.get(cluster_id).members
                expected = sum(
                    1 for node in members if state.nodes.is_byzantine(node)
                ) / len(members)
                assert observed[cluster_id] == pytest.approx(expected)
            assert state.worst_cluster_fraction() == pytest.approx(max(observed.values()))

    def test_swap_of_a_node_outside_the_index_is_refused(self, small_params):
        state = SystemState(parameters=small_params, rng=random.Random(4))
        for node_id in range(4):
            state.nodes.register(role=NodeRole.HONEST, node_id=node_id)
        state.clusters.create_cluster([0, 1], cluster_id=0)
        state.clusters.create_cluster([2, 3], cluster_id=1)
        state.clusters.get(1).add_member(99)  # placed behind the registry's back
        with pytest.raises(UnknownNodeError, match="99"):
            state.clusters.swap_members(0, 0, 1, 99)

    def test_member_list_cache_tracks_mutations(self):
        cluster = Cluster(cluster_id=1, members={3, 1})
        assert cluster.member_list() == [1, 3]
        cluster.add_member(2)
        assert cluster.member_list() == [1, 2, 3]
        cluster.remove_member(3)
        assert cluster.member_list() == [1, 2]
        cluster.swap_member(2, 9)
        assert cluster.member_list() == [1, 9]
        # Returned lists are fresh copies: mutating one never corrupts the cache.
        listed = cluster.member_list()
        listed.append(42)
        assert cluster.member_list() == [1, 9]
