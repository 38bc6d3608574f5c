"""Unit tests for the baseline schemes."""

from __future__ import annotations

import random

import pytest

from repro import default_parameters
from repro.baselines import (
    CuckooRuleEngine,
    NoShuffleEngine,
    SingleClusterBaseline,
    StaticClusterEngine,
)
from repro.core.events import ChurnEvent
from repro.errors import ConfigurationError
from repro.network.node import NodeRole
from repro.workloads import UniformChurn, drive


def params():
    return default_parameters(max_size=1024, k=2.0, tau=0.15, epsilon=0.05)


class TestNoShuffleEngine:
    def test_bootstrap_partition(self):
        engine = NoShuffleEngine.bootstrap(params(), initial_size=100, seed=1)
        assert engine.network_size == 100
        assert engine.cluster_count == 100 // params().target_cluster_size
        assert abs(engine.state.nodes.byzantine_fraction() - 0.15) < 0.02

    def test_join_goes_to_contacted_cluster(self):
        engine = NoShuffleEngine.bootstrap(params(), initial_size=100, seed=1)
        target = engine.state.clusters.cluster_ids()[0]
        size_before = len(engine.state.clusters.get(target))
        engine.join(role=NodeRole.BYZANTINE, contact_cluster=target)
        assert len(engine.state.clusters.get(target)) == size_before + 1

    def test_leave_and_merge(self):
        engine = NoShuffleEngine.bootstrap(params(), initial_size=100, seed=1)
        target = engine.state.clusters.cluster_ids()[0]
        # Drain the cluster below the merge threshold.
        while len(engine.state.clusters.get(target)) >= engine.parameters.merge_threshold:
            victim = engine.state.clusters.get(target).member_list()[0]
            engine.leave(victim)
            if target not in engine.state.clusters:
                break
        assert target not in engine.state.clusters
        # All remaining active nodes are still clustered.
        for node_id in engine.state.nodes.active_nodes():
            assert engine.state.clusters.contains_node(node_id)

    def test_split_on_overflow(self):
        engine = NoShuffleEngine.bootstrap(params(), initial_size=100, seed=1)
        target = engine.state.clusters.cluster_ids()[0]
        clusters_before = engine.cluster_count
        for _ in range(engine.parameters.split_threshold):
            engine.join(contact_cluster=target)
            if engine.cluster_count > clusters_before:
                break
        assert engine.cluster_count > clusters_before

    def test_reports(self):
        engine = NoShuffleEngine.bootstrap(params(), initial_size=100, seed=1)
        report = engine.join()
        assert report.network_size == 101
        assert isinstance(report.safe, bool)
        reports = drive(engine, UniformChurn(random.Random(2)), steps=5)
        assert [report.time_step for report in reports] == [2, 3, 4, 5, 6]

    def test_leave_requires_node_id(self):
        engine = NoShuffleEngine.bootstrap(params(), initial_size=100, seed=1)
        with pytest.raises(ConfigurationError):
            engine.apply_event(ChurnEvent(kind=ChurnEvent.leave(0).kind, node_id=None))


class TestStaticClusterEngine:
    def test_cluster_count_never_changes(self):
        engine = StaticClusterEngine.bootstrap(params(), initial_size=100, seed=2)
        initial_clusters = engine.cluster_count
        for _ in range(80):
            engine.join()
        assert engine.cluster_count == initial_clusters

    def test_max_cluster_size_grows_under_growth(self):
        engine = StaticClusterEngine.bootstrap(params(), initial_size=100, seed=2)
        before = engine.max_cluster_size()
        for _ in range(150):
            engine.join()
        after = engine.max_cluster_size()
        assert after > before
        assert engine.implied_agreement_cost() == after * after

    def test_leave_allows_empty_clusters(self):
        engine = StaticClusterEngine.bootstrap(params(), initial_size=100, seed=2)
        target = engine.state.clusters.cluster_ids()[0]
        for member in engine.state.clusters.get(target).member_list():
            engine.leave(member)
        assert target in engine.state.clusters
        assert len(engine.state.clusters.get(target)) == 0


class TestCuckooRuleEngine:
    def test_join_evicts_members(self):
        engine = CuckooRuleEngine.bootstrap(params(), initial_size=100, seed=3)
        sizes_before = engine.cluster_sizes()
        engine.join()
        # Total grew by one; some cluster other than the host may have changed size.
        assert engine.network_size == 101
        assert sum(engine.cluster_sizes().values()) == 101
        assert engine.cluster_count == len(sizes_before)

    def test_negative_evictions_rejected(self):
        with pytest.raises(ValueError):
            CuckooRuleEngine.bootstrap(params(), initial_size=100, seed=3, evictions_per_join=-1)

    def test_partition_remains_valid_under_churn(self):
        engine = CuckooRuleEngine.bootstrap(params(), initial_size=100, seed=3)
        rng = random.Random(4)
        for _ in range(60):
            if rng.random() < 0.5:
                engine.join()
            else:
                engine.leave(engine.random_member())
        seen = set()
        for cluster in engine.state.clusters.clusters():
            assert not (cluster.members & seen)
            seen |= cluster.members
        assert len(seen) == engine.network_size

    def test_mixes_better_than_no_shuffle_under_targeted_joins(self):
        """Directed Byzantine joins pile up in a no-shuffle cluster but spread under the cuckoo rule."""
        cuckoo = CuckooRuleEngine.bootstrap(params(), initial_size=120, seed=5)
        plain = NoShuffleEngine.bootstrap(params(), initial_size=120, seed=5)
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
