"""Unit tests for the NOW primitives: randNum, randCl and exchange."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.exchange import ExchangeProtocol
from repro.core.randcl import RandCl
from repro.core.randnum import RandNum
from repro.core.state import SystemState
from repro.errors import ProtocolViolationError, WalkError
from repro.network.metrics import CommunicationMetrics
from repro.network.node import NodeRole
from repro.params import ProtocolParameters
from repro.walks.sampler import WalkMode


def build_state(cluster_sizes=(6, 6, 6, 6), byzantine_per_cluster=1, seed=3):
    """A small clustered state with a bootstrapped overlay."""
    params = ProtocolParameters(max_size=1024, k=2.0, tau=0.25, epsilon=0.05)
    state = SystemState(parameters=params, rng=random.Random(seed))
    cluster_ids = []
    for size in cluster_sizes:
        members = []
        for index in range(size):
            role = NodeRole.BYZANTINE if index < byzantine_per_cluster else NodeRole.HONEST
            members.append(state.nodes.register(role=role).node_id)
        cluster = state.clusters.create_cluster(members)
        cluster_ids.append(cluster.cluster_id)
    weights = [float(len(state.clusters.get(cid))) for cid in cluster_ids]
    state.overlay.bootstrap(cluster_ids, weights)
    return state


class TestRandNum:
    def test_value_in_range(self):
        randnum = RandNum(random.Random(1))
        for _ in range(50):
            result = randnum.generate([1, 2, 3, 4], upper_bound=7, byzantine_members=[])
            assert 0 <= result.value < 7

    def test_cost_is_two_all_to_all_rounds(self):
        randnum = RandNum(random.Random(1))
        metrics = CommunicationMetrics()
        result = randnum.generate(range(5), upper_bound=10, byzantine_members=[], metrics=metrics)
        assert result.messages == 2 * 5 * 4
        assert result.rounds == 2
        assert metrics.messages == result.messages

    def test_rejects_empty_participants(self):
        randnum = RandNum(random.Random(1))
        with pytest.raises(ProtocolViolationError):
            randnum.generate([], upper_bound=4, byzantine_members=[])

    def test_rejects_bad_bound(self):
        randnum = RandNum(random.Random(1))
        with pytest.raises(ProtocolViolationError):
            randnum.generate([1], upper_bound=0, byzantine_members=[])

    def test_adversary_control_threshold(self):
        """With >= 2/3 Byzantine members the override decides the output."""
        override = lambda members, bound: 3
        randnum = RandNum(random.Random(1), adversary_override=override)
        secure = randnum.generate(range(6), upper_bound=100, byzantine_members=[0, 1, 2])
        assert not secure.adversary_controlled
        captured = randnum.generate(range(6), upper_bound=100, byzantine_members=[0, 1, 2, 3])
        assert captured.adversary_controlled
        assert captured.value == 3

    def test_uniformity(self):
        randnum = RandNum(random.Random(7))
        counts = Counter(
            randnum.generate(range(4), upper_bound=4, byzantine_members=[]).value
            for _ in range(4000)
        )
        for value in range(4):
            assert counts[value] / 4000 == pytest.approx(0.25, abs=0.05)

    def test_pick_member_returns_a_member(self):
        randnum = RandNum(random.Random(7))
        members = [10, 20, 30]
        for _ in range(20):
            result = randnum.pick_member(members, byzantine_members=[])
            assert result.value in members

    def test_pick_member_uniform(self):
        randnum = RandNum(random.Random(7))
        members = [10, 20, 30, 40]
        counts = Counter(
            randnum.pick_member(members, byzantine_members=[]).value for _ in range(4000)
        )
        for member in members:
            assert counts[member] / 4000 == pytest.approx(0.25, abs=0.05)

    def test_pick_member_empty_rejected(self):
        randnum = RandNum(random.Random(7))
        with pytest.raises(ProtocolViolationError):
            randnum.pick_member([], byzantine_members=[])


class TestRandCl:
    def test_select_returns_live_cluster(self):
        state = build_state()
        randcl = RandCl(state, walk_mode=WalkMode.ORACLE)
        start = state.clusters.cluster_ids()[0]
        for _ in range(10):
            result = randcl.select(start)
            assert result.cluster_id in state.clusters
            assert result.messages > 0
            assert result.rounds > 0

    def test_unknown_start_rejected(self):
        state = build_state()
        randcl = RandCl(state)
        with pytest.raises(WalkError):
            randcl.select(9999)

    def test_costs_charged_to_metrics(self):
        state = build_state()
        randcl = RandCl(state, walk_mode=WalkMode.ORACLE)
        metrics = CommunicationMetrics()
        result = randcl.select(state.clusters.cluster_ids()[0], metrics=metrics)
        assert metrics.messages == result.messages
        assert metrics.rounds == result.rounds

    def test_simulated_mode_runs(self):
        state = build_state()
        randcl = RandCl(state, walk_mode=WalkMode.SIMULATED)
        result = randcl.select(state.clusters.cluster_ids()[0])
        assert result.mode is WalkMode.SIMULATED
        assert result.hops >= 0

    def test_selection_proportional_to_cluster_size(self):
        """randCl targets the |C|/n distribution (oracle mode samples it directly)."""
        state = build_state(cluster_sizes=(12, 4, 4, 4))
        randcl = RandCl(state, walk_mode=WalkMode.ORACLE)
        start = state.clusters.cluster_ids()[1]
        counts = Counter(randcl.select(start).cluster_id for _ in range(3000))
        big_cluster = state.clusters.cluster_ids()[0]
        assert counts[big_cluster] / 3000 == pytest.approx(0.5, abs=0.05)


class TestExchange:
    def test_exchange_preserves_partition_and_sizes(self):
        state = build_state()
        randcl = RandCl(state, walk_mode=WalkMode.ORACLE)
        exchange = ExchangeProtocol(state, randcl)
        target = state.clusters.cluster_ids()[0]
        sizes_before = state.clusters.sizes()
        total_before = state.clusters.total_nodes()
        report = exchange.exchange_all([target])
        assert state.clusters.total_nodes() == total_before
        assert state.clusters.sizes() == sizes_before
        assert report.messages > 0
        # Every node still belongs to exactly one cluster.
        seen = set()
        for cluster in state.clusters.clusters():
            assert seen.isdisjoint(cluster.members)
            seen.update(cluster.members)

    def test_exchange_counts_swaps_and_partners(self):
        state = build_state()
        randcl = RandCl(state, walk_mode=WalkMode.ORACLE)
        exchange = ExchangeProtocol(state, randcl)
        target = state.clusters.cluster_ids()[0]
        report = exchange.exchange_all([target])
        assert report.swap_count <= 6
        assert all(partner in state.clusters for partner in report.partner_clusters)
        assert state.clusters.get(target).exchanges_performed == 1

    @pytest.mark.parametrize("walk_mode", [WalkMode.ORACLE, WalkMode.SIMULATED])
    def test_round_books_each_cost_kind_once(self, walk_mode):
        class CountingLedger(CommunicationMetrics):
            calls = 0

            def charge(self, *args, **kwargs):
                self.calls += 1
                super().charge(*args, **kwargs)

        state = build_state(cluster_sizes=(8, 8, 8, 8, 8))
        exchange = ExchangeProtocol(state, RandCl(state, walk_mode=walk_mode))
        ledger = CountingLedger()
        report = exchange.exchange_all([state.clusters.cluster_ids()[0]], metrics=ledger)
        assert report.swap_count > 1
        assert ledger.calls == 3  # walks, randNum picks, neighbour notification
        assert (ledger.messages, ledger.rounds) == (report.messages, report.rounds)

    def test_exchange_refreshes_byzantine_fraction(self):
        """Lemma 1: after a full exchange the fraction concentrates around tau.

        Start from a fully corrupted cluster in a network with a 25% global
        corruption level; after the exchange the cluster's corruption must
        drop dramatically (averaged over repetitions).
        """
        fractions = []
        for seed in range(12):
            state = build_state(cluster_sizes=(8, 8, 8, 8), byzantine_per_cluster=2, seed=seed)
            # Corrupt every member of cluster 0 by rebuilding it from Byzantine nodes.
            target = state.clusters.cluster_ids()[0]
            cluster = state.clusters.get(target)
            for node_id in cluster.member_list():
                state.nodes.get(node_id).role = NodeRole.BYZANTINE
            assert state.cluster_byzantine_fraction(target) == 1.0
            randcl = RandCl(state, walk_mode=WalkMode.ORACLE)
            exchange = ExchangeProtocol(state, randcl)
            exchange.exchange_all([target])
            fractions.append(state.cluster_byzantine_fraction(target))
        average = sum(fractions) / len(fractions)
        assert average < 0.65  # down from 1.0 towards the global corruption level
