"""Unit tests for the invariant checker and the inter-cluster message rule."""

from __future__ import annotations

import random

import pytest

from repro.core.intercluster import ClusterMessageRule, InterClusterChannel
from repro.core.invariants import check_invariants
from repro.core.state import SystemState
from repro.network.metrics import CommunicationMetrics
from repro.network.node import NodeRole
from repro.params import ProtocolParameters


def build_state(compositions, seed=2):
    """``compositions`` is a list of (honest_count, byzantine_count) per cluster."""
    params = ProtocolParameters(max_size=1024, k=2.0, tau=0.25, epsilon=0.05)
    state = SystemState(parameters=params, rng=random.Random(seed))
    cluster_ids = []
    for honest_count, byzantine_count in compositions:
        members = [state.nodes.register().node_id for _ in range(honest_count)]
        members += [
            state.nodes.register(role=NodeRole.BYZANTINE).node_id
            for _ in range(byzantine_count)
        ]
        cluster_ids.append(state.clusters.create_cluster(members).cluster_id)
    weights = [float(len(state.clusters.get(cid))) for cid in cluster_ids]
    state.overlay.bootstrap(cluster_ids, weights)
    return state


class TestInvariantChecker:
    def test_clean_state_passes(self):
        state = build_state([(18, 2), (18, 2), (18, 2)])
        report = check_invariants(state)
        assert report.holds
        assert report.violations == []
        assert report.cluster_count == 3
        assert report.network_size == 60
        assert report.overlay_connected

    def test_summary_format(self):
        state = build_state([(18, 2), (18, 2)])
        summary = check_invariants(state).summary()
        assert "OK" in summary
        assert "n=40" in summary

    def test_detects_compromised_cluster(self):
        state = build_state([(10, 10), (18, 2)])
        report = check_invariants(state)
        assert not report.holds
        assert report.compromised_clusters
        assert report.worst_byzantine_fraction == pytest.approx(0.5)

    def test_detects_departed_member(self):
        state = build_state([(18, 2), (18, 2)])
        member = state.clusters.get(state.clusters.cluster_ids()[0]).member_list()[0]
        state.nodes.mark_left(member, time_step=1)
        report = check_invariants(state)
        assert any("departed" in violation for violation in report.violations)

    def test_detects_unassigned_active_node(self):
        state = build_state([(18, 2)])
        state.nodes.register()  # active but never placed in a cluster
        report = check_invariants(state)
        assert any("not assigned" in violation for violation in report.violations)

    def test_detects_oversized_cluster(self):
        state = build_state([(18, 2)])
        big = [(state.nodes.register().node_id) for _ in range(60)]
        cluster_id = state.clusters.create_cluster(big).cluster_id
        state.overlay.add_vertex(cluster_id, weight=60.0, anchor=state.clusters.cluster_ids()[0])
        report = check_invariants(state)
        assert any("split threshold" in violation for violation in report.violations)

    def test_detects_overlay_weight_mismatch(self):
        state = build_state([(18, 2), (18, 2)])
        cluster_id = state.clusters.cluster_ids()[0]
        state.overlay.update_weight(cluster_id, 999.0)
        report = check_invariants(state)
        assert any("overlay weight" in violation for violation in report.violations)

    def test_detects_missing_overlay_vertex(self):
        state = build_state([(18, 2), (18, 2)])
        extra = [state.nodes.register().node_id for _ in range(20)]
        state.clusters.create_cluster(extra)  # never added to the overlay
        report = check_invariants(state, check_size_bounds=False)
        assert any("no overlay vertex" in violation for violation in report.violations)

    def test_detects_a_node_in_two_slots(self):
        state = build_state([(18, 2), (18, 2)])
        cluster_id = state.clusters.cluster_ids()[0]
        slots = state.clusters.get(cluster_id).members
        twice, lost = slots[0], slots[1]
        slots[1] = twice  # written behind the registry's back
        report = check_invariants(state)
        assert report.violations == [
            f"node {twice} appears in clusters {cluster_id} and {cluster_id}",
            f"active node {lost} is not assigned to any cluster",
            "node index has entries for 1 non-member node(s)",
        ]

    def test_detects_a_member_the_node_index_misplaces(self):
        state = build_state([(18, 2), (18, 2)])
        first, second = state.clusters.cluster_ids()
        member = state.clusters.get(first).member_list()[0]
        state.clusters._node_to_cluster[member] = second
        report = check_invariants(state)
        assert report.violations == [
            f"node index places member {member} of cluster {first} in {second}"
        ]

    def test_detects_a_member_missing_from_the_node_index(self):
        state = build_state([(18, 2), (18, 2)])
        first = state.clusters.cluster_ids()[0]
        member = state.clusters.get(first).member_list()[0]
        del state.clusters._node_to_cluster[member]
        report = check_invariants(state)
        assert report.violations == [
            f"node index places member {member} of cluster {first} in None"
        ]

    def test_detects_a_stale_node_index_entry(self):
        state = build_state([(18, 2), (18, 2)])
        stale = state.nodes.register().node_id
        state.nodes.mark_left(stale, time_step=1)
        state.clusters._node_to_cluster[stale] = state.clusters.cluster_ids()[0]
        report = check_invariants(state)
        assert report.violations == ["node index has entries for 1 non-member node(s)"]

    def test_selective_checks_can_be_disabled(self):
        state = build_state([(10, 10)])
        report = check_invariants(state, check_honest_majority=False)
        assert all("Byzantine" not in violation for violation in report.violations)


class TestClusterMessageRule:
    def test_honest_supermajority_can_send(self):
        state = build_state([(15, 5)])
        rule = ClusterMessageRule(state)
        cluster_id = state.clusters.cluster_ids()[0]
        assert rule.can_send_validly(cluster_id)
        assert not rule.can_forge(cluster_id)
        assert rule.honest_count(cluster_id) == 15
        assert rule.byzantine_count(cluster_id) == 5

    def test_captured_cluster_can_forge(self):
        state = build_state([(4, 16)])
        rule = ClusterMessageRule(state)
        cluster_id = state.clusters.cluster_ids()[0]
        assert not rule.can_send_validly(cluster_id)
        assert rule.can_forge(cluster_id)

    def test_exact_half_cannot_do_either(self):
        state = build_state([(10, 10)])
        rule = ClusterMessageRule(state)
        cluster_id = state.clusters.cluster_ids()[0]
        assert not rule.can_send_validly(cluster_id)
        assert not rule.can_forge(cluster_id)


class TestInterClusterChannel:
    def test_send_accepted_between_honest_clusters(self):
        state = build_state([(15, 5), (15, 5)])
        metrics = CommunicationMetrics()
        channel = InterClusterChannel(state, metrics=metrics)
        first, second = state.clusters.cluster_ids()[:2]
        outcome = channel.send(first, second, payload="hello")
        assert outcome.accepted
        assert not outcome.forged
        assert outcome.payload == "hello"
        assert outcome.messages == 20 * 20
        assert metrics.messages == outcome.messages

    def test_send_from_captured_cluster_forges(self):
        state = build_state([(3, 17), (15, 5)])
        channel = InterClusterChannel(state)
        first, second = state.clusters.cluster_ids()[:2]
        outcome = channel.send(first, second, payload="honest", adversarial_payload="forged")
        assert not outcome.accepted
        assert outcome.forged
        assert outcome.payload == "forged"

    def test_send_from_deadlocked_cluster_delivers_nothing(self):
        state = build_state([(10, 10), (15, 5)])
        channel = InterClusterChannel(state)
        first, second = state.clusters.cluster_ids()[:2]
        outcome = channel.send(first, second, payload="honest", adversarial_payload="forged")
        assert not outcome.accepted
        assert not outcome.forged
        assert outcome.payload is None

    def test_broadcast_to_neighbours(self):
        state = build_state([(15, 5), (15, 5), (15, 5)])
        channel = InterClusterChannel(state)
        origin = state.clusters.cluster_ids()[0]
        outcomes = channel.broadcast_to_neighbours(origin, payload=42)
        neighbour_count = len(state.overlay.graph.neighbours(origin))
        assert len(outcomes) == neighbour_count
        assert all(outcome.accepted for outcome in outcomes)
