"""Unit tests for the initialization phase and the NOW engine."""

from __future__ import annotations

import random

import pytest

from repro import (
    ChurnEvent,
    EngineConfig,
    NowEngine,
    NowInitializer,
    default_parameters,
)
from repro.core.initialization import InitializationReport
from repro.errors import ConfigurationError
from repro.network.node import NodeRole
from repro.walks.sampler import WalkMode
from repro.workloads import UniformChurn, drive


class TestNowInitializer:
    def params(self):
        return default_parameters(max_size=1024, k=2.0, tau=0.1, epsilon=0.05)

    def test_build_produces_valid_partition(self):
        initializer = NowInitializer(self.params(), random.Random(1))
        state, report = initializer.build(initial_size=120, byzantine_fraction=0.1)
        assert state.network_size == 120
        assert len(state.clusters) == report.cluster_count
        assert report.cluster_count == 120 // self.params().target_cluster_size
        # Every cluster got roughly the target size.
        for size in state.clusters.sizes().values():
            assert size >= self.params().merge_threshold
            assert size <= self.params().split_threshold
        assert state.overlay.graph.is_connected()

    def test_report_costs_are_positive(self):
        initializer = NowInitializer(self.params(), random.Random(1))
        _, report = initializer.build(initial_size=120, byzantine_fraction=0.1)
        assert report.discovery_messages > 0
        assert report.agreement_messages > 0
        assert report.clusterization_messages > 0
        assert report.total_messages == (
            report.discovery_messages
            + report.agreement_messages
            + report.clusterization_messages
        )
        assert report.total_rounds > 0

    def test_message_level_discovery_mode(self):
        initializer = NowInitializer(
            self.params(), random.Random(1), discovery_mode="message"
        )
        _, report = initializer.build(initial_size=80, byzantine_fraction=0.1)
        assert report.discovery_mode == "message"
        assert report.discovery_messages > 0

    def test_discovery_modes_book_under_the_same_labels(self):
        """Executed and modelled discovery charge the same ledger labels."""
        for mode in ("message", "model"):
            initializer = NowInitializer(self.params(), random.Random(1), discovery_mode=mode)
            state, _ = initializer.build(initial_size=80, byzantine_fraction=0.1)
            ledger = state.metrics.scope("initialization")
            assert set(ledger.by_label) == {"discovery", "clusterization"}, mode
            assert set(ledger.rounds_by_label) == {"discovery", "clusterization"}, mode

    def test_auto_discovery_switches_to_model_for_large_populations(self):
        initializer = NowInitializer(
            self.params(), random.Random(1), discovery_mode="auto", message_discovery_limit=50
        )
        _, report = initializer.build(initial_size=120, byzantine_fraction=0.1)
        assert report.discovery_mode == "model"

    def test_invalid_discovery_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            NowInitializer(self.params(), random.Random(1), discovery_mode="bogus")

    def test_too_small_population_rejected(self):
        initializer = NowInitializer(self.params(), random.Random(1))
        with pytest.raises(ConfigurationError):
            initializer.build(initial_size=10)

    def test_population_byzantine_fraction(self):
        initializer = NowInitializer(self.params(), random.Random(1))
        registry = initializer.create_population(200, byzantine_fraction=0.2)
        assert len(registry.active_byzantine()) == 40

    def test_invalid_byzantine_fraction_rejected(self):
        initializer = NowInitializer(self.params(), random.Random(1))
        with pytest.raises(ConfigurationError):
            initializer.create_population(100, byzantine_fraction=1.5)


class TestNowEngineBasics:
    def test_bootstrap_and_observation(self, small_engine):
        assert small_engine.network_size == 120
        assert small_engine.cluster_count >= 2
        assert 0.0 <= small_engine.worst_cluster_fraction() < 1.0 / 3.0
        assert small_engine.check_invariants().holds
        assert small_engine.initialization_report is not None

    def test_join_adds_a_node(self, small_engine):
        before = small_engine.network_size
        report = small_engine.join()
        assert small_engine.network_size == before + 1
        assert report.event.kind.value == "join"
        assert report.operation.messages > 0
        assert small_engine.check_invariants(check_honest_majority=False).holds

    def test_leave_removes_a_node(self, small_engine):
        victim = small_engine.random_member()
        before = small_engine.network_size
        report = small_engine.leave(victim)
        assert small_engine.network_size == before - 1
        assert victim not in small_engine.active_nodes()
        assert report.operation.operation == "leave"

    def test_rejoin_of_departed_node(self, small_engine):
        victim = small_engine.random_member()
        small_engine.leave(victim)
        small_engine.join(node_id=victim)
        assert victim in small_engine.active_nodes()

    def test_leave_requires_node_id(self, small_engine):
        with pytest.raises(ConfigurationError):
            small_engine.apply_event(ChurnEvent(kind=ChurnEvent.leave(1).kind, node_id=None))

    def test_run_trace(self, small_engine):
        events = [ChurnEvent.join() for _ in range(3)]
        reports = small_engine.run_trace(events)
        assert len(reports) == 3
        assert small_engine.state.time_step == 3

    def test_drive_returns_the_reports(self, small_engine):
        reports = drive(small_engine, UniformChurn(random.Random(4)), steps=2)
        assert len(reports) == 2
        assert reports[-1].time_step == 2

    def test_byzantine_join_recorded_in_registry(self, small_engine):
        report = small_engine.join(role=NodeRole.BYZANTINE)
        node_id = report.operation.node_id
        assert small_engine.state.nodes.is_byzantine(node_id)

    def test_random_member_honest_only(self, small_engine):
        byzantine = small_engine.state.nodes.active_byzantine()
        for _ in range(10):
            assert small_engine.random_member(honest_only=True) not in byzantine

    def test_metrics_scopes_populated(self, small_engine):
        small_engine.join()
        small_engine.leave(small_engine.random_member())
        assert small_engine.metrics.scope("join").messages > 0
        assert small_engine.metrics.scope("leave").messages > 0

    def test_walk_mode_configuration(self, small_params):
        engine = NowEngine.bootstrap(
            small_params,
            initial_size=120,
            byzantine_fraction=0.1,
            seed=42,
            config=EngineConfig(walk_mode=WalkMode.SIMULATED),
        )
        report = engine.join()
        assert report.operation.walk_hops >= 0
        assert engine.check_invariants(check_honest_majority=False).holds


class TestEngineMaintainsInvariants:
    def test_invariants_hold_through_mixed_churn(self, small_engine):
        rng = random.Random(3)
        for step in range(40):
            if rng.random() < 0.5:
                role = NodeRole.BYZANTINE if rng.random() < 0.1 else NodeRole.HONEST
                small_engine.join(role=role)
            else:
                small_engine.leave(small_engine.random_member())
            report = small_engine.check_invariants(check_honest_majority=False)
            assert report.holds, report.violations
        # Cluster sizes stay within the protocol's band.
        sizes = small_engine.cluster_sizes().values()
        assert all(
            small_engine.parameters.merge_threshold <= size <= small_engine.parameters.split_threshold
            for size in sizes
        )

    def test_network_size_tracks_events(self, small_engine):
        start = small_engine.network_size
        for _ in range(5):
            small_engine.join()
        for _ in range(3):
            small_engine.leave(small_engine.random_member())
        assert small_engine.network_size == start + 2
