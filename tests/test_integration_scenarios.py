"""Integration tests: end-to-end scenarios reproducing the paper's claims at small scale.

Each test is a miniature version of one of the experiments in docs/ARCHITECTURE.md,
small enough to run in seconds but still exercising the full stack
(initialization, maintenance, adversary, applications) together.
"""

from __future__ import annotations

import random

import pytest

from repro import NowEngine, SimulationRunner, default_parameters
from repro.adversary import JoinLeaveAttack, TargetedDosAdversary
from repro.analysis import summarize_fractions
from repro.apps import AggregationService, ClusteredBroadcast
from repro.network.node import NodeRole
from repro.overlay.expansion import analyse_expansion
from repro.scenarios import stop_when_compromised
from repro.workloads import GrowthWorkload, MixedDriver, UniformChurn, drive


def make_params(**overrides):
    defaults = dict(max_size=2048, k=3.0, l=2.0, alpha=0.1, tau=0.15, epsilon=0.05)
    defaults.update(overrides)
    return default_parameters(**defaults)


class TestTheorem3Miniature:
    """E1 in miniature: honest supermajority survives sustained churn."""

    def test_corruption_stays_below_one_third_under_churn(self):
        params = make_params(tau=0.1)
        engine = NowEngine.bootstrap(params, initial_size=200, byzantine_fraction=0.1, seed=11)
        workload = UniformChurn(random.Random(12), byzantine_join_fraction=0.1)
        reports = drive(engine, workload, steps=120)
        worst_per_step = [report.worst_byzantine_fraction for report in reports]
        summary = summarize_fractions(worst_per_step)
        # With tau = 0.10 and clusters of ~33 nodes, no cluster should ever
        # approach one third over a short run.
        assert summary.maximum < 1.0 / 3.0
        assert engine.check_invariants().holds

    def test_full_exchange_resets_a_polluted_cluster(self):
        """Lemma 1 end to end: corrupt a cluster, let churn repair it."""
        params = make_params(tau=0.1)
        engine = NowEngine.bootstrap(params, initial_size=200, byzantine_fraction=0.1, seed=13)
        target = engine.state.clusters.cluster_ids()[0]
        # Artificially corrupt 40% of the target cluster's members.
        members = engine.state.clusters.get(target).member_list()
        for node_id in members[: int(0.4 * len(members))]:
            engine.state.nodes.get(node_id).role = NodeRole.BYZANTINE
        assert engine.state.cluster_byzantine_fraction(target) >= 0.35
        # A single leave event from that cluster triggers a full exchange of it.
        departing = members[-1]
        engine.leave(departing)
        if target in engine.state.clusters:
            fraction_after = engine.state.cluster_byzantine_fraction(target)
            assert fraction_after < 0.35


class TestJoinLeaveAttackComparison:
    """E7 in miniature: shuffling defeats the join-leave attack, no-shuffle falls."""

    def test_now_resists_while_no_shuffle_is_captured(self):
        params = make_params(tau=0.15)
        now_engine = NowEngine.bootstrap(
            params, initial_size=200, byzantine_fraction=0.15, seed=21
        )
        baseline = NowEngine.bootstrap(
            params, initial_size=200, byzantine_fraction=0.15, seed=21, rule="no_shuffle"
        )
        now_target = now_engine.state.clusters.cluster_ids()[0]
        base_target = baseline.state.clusters.cluster_ids()[0]

        JoinLeaveAttack(random.Random(1), target_cluster=now_target).run(now_engine, steps=80)
        JoinLeaveAttack(random.Random(1), target_cluster=base_target).run(baseline, steps=80)

        baseline_fraction = (
            baseline.state.cluster_byzantine_fraction(base_target)
            if base_target in baseline.state.clusters
            else baseline.worst_cluster_fraction()
        )
        now_fraction = now_engine.worst_cluster_fraction()
        assert baseline_fraction >= 1.0 / 3.0, "the unshuffled target should be captured"
        assert now_fraction < baseline_fraction, "NOW must do strictly better"

    def test_dos_attack_with_background_churn(self):
        params = make_params(tau=0.15)
        engine = NowEngine.bootstrap(params, initial_size=200, byzantine_fraction=0.15, seed=31)
        mixed = MixedDriver(
            [
                (UniformChurn(random.Random(32), byzantine_join_fraction=0.15), 0.6),
                (TargetedDosAdversary(random.Random(33)), 0.4),
            ],
            random.Random(34),
        )
        mixed.run(engine, steps=100)
        assert engine.check_invariants(check_honest_majority=False).holds
        assert engine.worst_cluster_fraction() < 0.5


class TestPolynomialGrowth:
    """E6 in miniature: NOW keeps clusters small while the static scheme blows up."""

    def test_growth_from_sqrt_n_towards_n(self):
        params = make_params(max_size=4096, tau=0.1)
        start = 128  # ~ 2 * sqrt(4096)
        target = 420
        now_engine = NowEngine.bootstrap(params, initial_size=start, byzantine_fraction=0.1, seed=41)
        static = NowEngine.bootstrap(
            params, initial_size=start, byzantine_fraction=0.1, seed=41, rule="static_clusters"
        )
        drive(now_engine, GrowthWorkload(random.Random(42), target_size=target), steps=600)
        static_reports = drive(
            static, GrowthWorkload(random.Random(42), target_size=target), steps=600
        )

        assert now_engine.network_size == target
        assert static.network_size == target
        # NOW's cluster count grows, its max cluster size stays near k log N.
        now_max = max(now_engine.cluster_sizes().values())
        static_max = max(static.cluster_sizes().values())
        assert now_max <= params.split_threshold
        assert static_max > now_max
        assert static.cluster_count == static_reports[0].cluster_count
        assert now_engine.cluster_count > static.cluster_count
        # The maintained overlay is still a healthy expander.
        report = analyse_expansion(now_engine.state.overlay.graph)
        assert report.connected
        assert report.max_degree <= params.overlay_degree_cap


class TestApplicationsEndToEnd:
    """E8 in miniature: applications run correctly on a maintained, churned system."""

    def test_broadcast_and_aggregation_after_churn(self):
        params = make_params(tau=0.1)
        engine = NowEngine.bootstrap(params, initial_size=200, byzantine_fraction=0.1, seed=51)
        drive(engine, UniformChurn(random.Random(52), byzantine_join_fraction=0.1), steps=60)

        broadcast = ClusteredBroadcast(engine).broadcast("announcement")
        assert broadcast.coverage(engine.cluster_count) == pytest.approx(1.0)
        assert broadcast.nodes_reached == engine.network_size

        aggregate = AggregationService(engine).count_active_nodes()
        honest = engine.network_size - len(engine.state.nodes.active_byzantine())
        assert aggregate.value == pytest.approx(honest)

    def test_benign_run_never_stops_on_compromise(self):
        """A benign run under ``stop_when_compromised`` completes its budget."""
        params = make_params(tau=0.05)
        engine = NowEngine.bootstrap(params, initial_size=200, byzantine_fraction=0.05, seed=61)
        runner = SimulationRunner(
            engine,
            UniformChurn(random.Random(62), byzantine_join_fraction=0.05),
            stop_conditions=[stop_when_compromised()],
        )
        assert runner.run(40).stop_reason == "steps exhausted"
        assert engine.check_invariants().holds
