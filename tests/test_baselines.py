"""The comparison schemes as ``NowEngine`` placement rules, and the unclustered baseline."""

from __future__ import annotations

import random

import pytest

from repro import NowEngine, default_parameters
from repro.baselines import SingleClusterBaseline
from repro.core.events import ChurnEvent
from repro.core.placement import EVICTIONS_PER_JOIN
from repro.errors import ConfigurationError
from repro.network.node import NodeRole
from repro.workloads import UniformChurn, drive


def params():
    return default_parameters(max_size=1024, k=2.0, tau=0.15, epsilon=0.05)


def engine(rule, initial_size=100, seed=1):
    return NowEngine.bootstrap(params(), initial_size=initial_size, seed=seed, rule=rule)


def assert_partition(engine):
    seen = set()
    for cluster in engine.state.clusters.clusters():
        assert seen.isdisjoint(cluster.members)
        seen.update(cluster.members)
    assert seen == set(engine.active_nodes())


class TestEveryRule:
    @pytest.mark.parametrize("rule", ["now", "no_shuffle", "cuckoo_rule", "static_clusters"])
    def test_same_bootstrap_under_every_rule(self, rule):
        reference = engine("now", seed=4)
        ruled = engine(rule, seed=4)
        assert ruled.cluster_sizes() == reference.cluster_sizes()
        assert ruled.state_hash() == reference.state_hash()

    @pytest.mark.parametrize("rule", ["no_shuffle", "cuckoo_rule", "static_clusters"])
    def test_reports_carry_the_operation(self, rule):
        ruled = engine(rule)
        report = ruled.join()
        assert report.network_size == 101
        assert report.operation.operation == "join"
        assert ruled.state.clusters.cluster_of(report.operation.node_id) == (
            report.operation.primary_cluster
        )
        reports = drive(ruled, UniformChurn(random.Random(2)), steps=5)
        assert [report.time_step for report in reports] == [2, 3, 4, 5, 6]

    @pytest.mark.parametrize("rule", ["no_shuffle", "cuckoo_rule", "static_clusters"])
    def test_leave_requires_node_id(self, rule):
        with pytest.raises(ConfigurationError):
            engine(rule).apply_event(ChurnEvent(kind=ChurnEvent.leave(0).kind, node_id=None))

    def test_unknown_rule_is_refused(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            engine("cuckoo")


class TestNoShuffle:
    def test_join_goes_to_contacted_cluster(self):
        plain = engine("no_shuffle")
        target = plain.state.clusters.cluster_ids()[0]
        size_before = len(plain.state.clusters.get(target))
        plain.join(role=NodeRole.BYZANTINE, contact_cluster=target)
        assert len(plain.state.clusters.get(target)) == size_before + 1

    def test_leave_and_merge(self):
        plain = engine("no_shuffle")
        target = plain.state.clusters.cluster_ids()[0]
        # Drain the cluster below the merge threshold.
        while target in plain.state.clusters:
            plain.leave(plain.state.clusters.get(target).member_list()[0])
        assert plain.check_invariants(check_honest_majority=False).holds

    def test_split_on_overflow(self):
        plain = engine("no_shuffle")
        target = plain.state.clusters.cluster_ids()[0]
        clusters_before = plain.cluster_count
        while plain.cluster_count == clusters_before:
            report = plain.join(contact_cluster=target)
        assert report.operation.operations_flat() == ["join", "split"]
        assert max(plain.cluster_sizes().values()) <= plain.parameters.split_threshold

    def test_merge_into_a_host_at_split_threshold_splits_it(self):
        # Two clusters: a merge re-places every member of one into the other.
        plain = engine("no_shuffle", initial_size=43)
        threshold = plain.parameters.split_threshold
        victim, host = plain.state.clusters.cluster_ids()
        while len(plain.state.clusters.get(host)) < threshold:
            plain.join(contact_cluster=host)
        assert len(plain.state.clusters.get(host)) == threshold
        while victim in plain.state.clusters:
            report = plain.leave(plain.state.clusters.get(victim).member_list()[0])
        assert "merge" in report.operation.operations_flat()
        assert "split" in report.operation.operations_flat()
        assert max(plain.cluster_sizes().values()) <= threshold
        assert plain.check_invariants(check_honest_majority=False).holds


class TestStaticClusters:
    def test_cluster_count_never_changes(self):
        static = engine("static_clusters", seed=2)
        initial_clusters = static.cluster_count
        for _ in range(80):
            static.join()
        assert static.cluster_count == initial_clusters

    def test_max_cluster_size_grows_under_growth(self):
        static = engine("static_clusters", seed=2)
        before = max(static.cluster_sizes().values())
        for _ in range(150):
            static.join()
        assert max(static.cluster_sizes().values()) > before

    def test_leave_allows_empty_clusters(self):
        static = engine("static_clusters", seed=2)
        target = static.state.clusters.cluster_ids()[0]
        for member in static.state.clusters.get(target).member_list():
            static.leave(member)
        assert target in static.state.clusters
        assert len(static.state.clusters.get(target)) == 0


class TestCuckooRule:
    def test_join_evicts_members(self):
        cuckoo = engine("cuckoo_rule", seed=3)
        host_sizes = cuckoo.cluster_sizes()
        report = cuckoo.join()
        host = report.operation.primary_cluster
        # The host gained the joiner and lost its evicted incumbents.
        assert len(cuckoo.state.clusters.get(host)) == host_sizes[host] + 1 - EVICTIONS_PER_JOIN
        assert sum(cuckoo.cluster_sizes().values()) == 101
        assert cuckoo.cluster_count == len(host_sizes)

    def test_partition_remains_valid_under_churn(self):
        cuckoo = engine("cuckoo_rule", seed=3)
        rng = random.Random(4)
        for _ in range(60):
            if rng.random() < 0.5:
                cuckoo.join()
            else:
                cuckoo.leave(cuckoo.random_member(rng=rng))
        assert_partition(cuckoo)
        assert max(cuckoo.cluster_sizes().values()) <= cuckoo.parameters.split_threshold

    def test_mixes_better_than_no_shuffle_under_targeted_joins(self):
        """Directed Byzantine joins pile up in a no-shuffle cluster but spread under the cuckoo rule."""
        cuckoo = engine("cuckoo_rule", initial_size=120, seed=5)
        plain = engine("no_shuffle", initial_size=120, seed=5)
        cuckoo_target = cuckoo.state.clusters.cluster_ids()[0]
        plain_target = plain.state.clusters.cluster_ids()[0]
        for _ in range(15):
            cuckoo.join(role=NodeRole.BYZANTINE, contact_cluster=cuckoo_target)
            plain.join(role=NodeRole.BYZANTINE, contact_cluster=plain_target)
        plain_fraction = plain.state.cluster_byzantine_fraction(plain_target)
        cuckoo_fraction = (
            cuckoo.state.cluster_byzantine_fraction(cuckoo_target)
            if cuckoo_target in cuckoo.state.clusters
            else 0.0
        )
        assert plain_fraction > cuckoo_fraction


class TestSingleClusterBaseline:
    def test_closed_form_costs(self):
        baseline = SingleClusterBaseline()
        assert baseline.broadcast_messages(100) == 100 * 99
        assert baseline.sample_messages(100) == 99
        assert baseline.agreement_messages(100) > 100 * 99  # several phases
        report = baseline.report(100)
        assert report.broadcast_messages == 9900

    def test_broadcast_cost_is_quadratic(self):
        baseline = SingleClusterBaseline()
        assert baseline.broadcast_messages(200) == pytest.approx(
            4 * baseline.broadcast_messages(100), rel=0.05
        )

    def test_measured_agreement_matches_order_of_closed_form(self):
        baseline = SingleClusterBaseline(random.Random(1))
        measured = baseline.measured_agreement_messages(20, fault_fraction=0.1)
        closed = baseline.agreement_messages(20, fault_fraction=0.1)
        assert measured > 0
        # Same order of magnitude (the closed form over-counts king messages slightly).
        assert 0.1 * closed < measured < 10 * closed
