"""Unit tests for flooding discovery, the scalable-agreement model and committee election."""

from __future__ import annotations

import random

import pytest

from repro.agreement.broadcast import flood_broadcast
from repro.agreement.committee import CommitteeElection
from repro.agreement.scalable import ScalableAgreementModel
from repro.errors import AgreementError
from repro.network.metrics import CommunicationMetrics
from repro.network.node import NodeDescriptor, NodeRole
from repro.network.topology import KnowledgeGraph


def build_line_network(size: int, byzantine=()):
    """A path graph: worst case diameter for discovery."""
    knowledge = KnowledgeGraph()
    descriptors = {}
    for node_id in range(size):
        role = NodeRole.BYZANTINE if node_id in byzantine else NodeRole.HONEST
        descriptors[node_id] = NodeDescriptor(node_id=node_id, role=role)
        knowledge.add_node(node_id)
    for node_id in range(size - 1):
        knowledge.connect(node_id, node_id + 1)
    return knowledge, descriptors


class TestFloodBroadcast:
    def test_all_honest_nodes_learn_everything(self):
        knowledge, descriptors = build_line_network(10)
        initial = {node_id: {node_id} for node_id in range(10)}
        learned, metrics = flood_broadcast(knowledge, descriptors, initial)
        for node_id in range(10):
            assert learned[node_id] == set(range(10))
        assert metrics.messages > 0
        assert metrics.rounds >= 9  # at least the diameter

    def test_silent_byzantine_delay_but_do_not_block_when_graph_is_rich(self):
        """On a clique, silent Byzantine nodes cannot prevent discovery."""
        knowledge = KnowledgeGraph()
        for first in range(8):
            for second in range(first + 1, 8):
                knowledge.connect(first, second)
        descriptors = {
            node_id: NodeDescriptor(
                node_id=node_id,
                role=NodeRole.BYZANTINE if node_id in (0, 1) else NodeRole.HONEST,
            )
            for node_id in range(8)
        }
        initial = {node_id: {node_id} for node_id in range(8)}
        learned, _ = flood_broadcast(knowledge, descriptors, initial)
        honest = [node_id for node_id in range(8) if node_id not in (0, 1)]
        for node_id in honest:
            # Every honest node learns at least every honest identifier.
            assert set(honest).issubset(learned[node_id])

    def test_round_cap_stops_the_flood(self):
        """Each round carries identifiers one hop further; the cap cuts it short."""
        knowledge, descriptors = build_line_network(10)
        initial = {node_id: {node_id} for node_id in range(10)}
        learned, metrics = flood_broadcast(knowledge, descriptors, initial, max_rounds=3)
        assert metrics.rounds == 3
        assert learned[9] == {6, 7, 8, 9}
        assert learned[0] == {0, 1, 2, 3}

    def test_cost_is_booked_as_discovery(self):
        knowledge, descriptors = build_line_network(6)
        ledger = CommunicationMetrics()
        ledger.charge_messages(5, label="earlier")
        _, returned = flood_broadcast(
            knowledge, descriptors, {node_id: {node_id} for node_id in range(6)}, metrics=ledger
        )
        assert returned is ledger
        flood_messages = ledger.messages - 5
        assert flood_messages > 0
        assert ledger.by_kind["discovery"] == ledger.by_label["discovery"] == flood_messages
        assert ledger.rounds_by_label["discovery"] == ledger.rounds > 0

    def test_fresh_ledger_holds_only_the_flood(self):
        knowledge, descriptors = build_line_network(4)
        _, ledger = flood_broadcast(knowledge, descriptors, {})
        assert set(ledger.by_label) == set(ledger.rounds_by_label) == {"discovery"}

    def test_one_hop_per_round(self):
        """A message sent in round r is delivered, and forwarded, in round r + 1."""
        knowledge, descriptors = build_line_network(8)
        learned, _ = flood_broadcast(
            knowledge, descriptors, {node_id: {node_id} for node_id in range(8)}, max_rounds=1
        )
        for node_id in range(8):
            assert learned[node_id] == {node_id - 1, node_id, node_id + 1} & set(range(8))

    @pytest.mark.parametrize("size", [2, 5, 10])
    def test_line_floods_in_diameter_plus_one_rounds(self, size):
        """The last round delivers only what every receiver already knows."""
        knowledge, descriptors = build_line_network(size)
        _, ledger = flood_broadcast(knowledge, descriptors, {})
        assert ledger.rounds == (size - 1) + 1

    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_clique_cost(self, size):
        """Every node sends its id to n-1 neighbours, then forwards each new id to n-1."""
        knowledge = KnowledgeGraph()
        for first in range(size):
            for second in range(first + 1, size):
                knowledge.connect(first, second)
        descriptors = {node_id: NodeDescriptor(node_id=node_id) for node_id in range(size)}
        learned, ledger = flood_broadcast(knowledge, descriptors, {})
        assert all(learned[node_id] == set(range(size)) for node_id in range(size))
        assert ledger.messages == size * (size - 1) + size * (size - 1) * (size - 1)
        assert ledger.rounds == 2

    def test_sends_follow_knowledge_edges_only(self):
        """Two components: no identifier crosses between them."""
        knowledge = KnowledgeGraph()
        for first, second in [(0, 1), (1, 2), (3, 4)]:
            knowledge.connect(first, second)
        descriptors = {node_id: NodeDescriptor(node_id=node_id) for node_id in range(5)}
        learned, _ = flood_broadcast(knowledge, descriptors, {})
        assert [learned[node_id] for node_id in range(5)] == [{0, 1, 2}] * 3 + [{3, 4}] * 2

    def test_edgeless_network_is_quiescent_at_once(self):
        knowledge = KnowledgeGraph()
        for node_id in range(4):
            knowledge.add_node(node_id)
        descriptors = {node_id: NodeDescriptor(node_id=node_id) for node_id in range(4)}
        learned, ledger = flood_broadcast(knowledge, descriptors, {})
        assert learned == {node_id: {node_id} for node_id in range(4)}
        assert (ledger.messages, ledger.rounds) == (0, 0)

    def test_all_byzantine_network_sends_nothing(self):
        knowledge, descriptors = build_line_network(5, byzantine=range(5))
        learned, ledger = flood_broadcast(knowledge, descriptors, {})
        assert learned == {node_id: {node_id} for node_id in range(5)}
        assert (ledger.messages, ledger.rounds) == (0, 0)

    def test_byzantine_node_receives_but_never_forwards(self):
        knowledge, descriptors = build_line_network(3, byzantine={1})
        learned, ledger = flood_broadcast(knowledge, descriptors, {})
        assert learned == {0: {0}, 1: {0, 1, 2}, 2: {2}}
        assert (ledger.messages, ledger.rounds) == (2, 1)

    def test_node_missing_from_the_graph_learns_nothing(self):
        knowledge, descriptors = build_line_network(3)
        descriptors[7] = NodeDescriptor(node_id=7)
        learned, _ = flood_broadcast(knowledge, descriptors, {})
        assert learned[7] == {7}
        assert all(learned[node_id] == {0, 1, 2} for node_id in range(3))

    def test_messages_to_unregistered_neighbours_are_charged_not_delivered(self):
        knowledge, descriptors = build_line_network(3)
        del descriptors[2]
        learned, ledger = flood_broadcast(knowledge, descriptors, {})
        assert learned == {0: {0, 1}, 1: {0, 1}}
        # 0->1, 1->0, 1->2 initially; then 0 forwards {1} to 1 and 1 forwards {0} to 0 and 2.
        assert ledger.messages == 6

    def test_initial_items_default_to_own_id_and_empty_sets_start_silent(self):
        knowledge, descriptors = build_line_network(3)
        learned, ledger = flood_broadcast(
            knowledge, descriptors, {0: {"a", "b"}, 1: set()}, max_rounds=1
        )
        # Node 1 sent nothing initially, so after one round 0 has heard nothing.
        assert learned[0] == {"a", "b"}
        assert learned[1] == {"a", "b", 2}
        assert learned[2] == {2}


class TestScalableAgreementModel:
    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            ScalableAgreementModel(random.Random(0), tolerance=0.0)

    def test_below_threshold_agrees_on_honest_plurality(self):
        model = ScalableAgreementModel(random.Random(0))
        inputs = {node: (0 if node < 6 else 1) for node in range(9)}
        outcome = model.decide(inputs, byzantine={8})
        assert outcome.agreement
        assert outcome.validity
        assert outcome.decided_value == 0

    def test_above_threshold_fails_visibly(self):
        model = ScalableAgreementModel(random.Random(0))
        inputs = {node: node % 2 for node in range(9)}
        outcome = model.decide(inputs, byzantine={0, 1, 2})  # exactly 1/3
        assert not outcome.agreement

    def test_cost_model_scales_superlinearly(self):
        model = ScalableAgreementModel(random.Random(0))
        small = model.message_cost(100)
        large = model.message_cost(400)
        # n^1.5 scaling: quadrupling n multiplies cost by ~8 (plus log factor).
        assert large > 7 * small
        assert model.message_cost(1) == 0
        assert model.round_cost(256) > 0

    def test_empty_inputs(self):
        model = ScalableAgreementModel(random.Random(0))
        outcome = model.decide({}, byzantine=set())
        assert outcome.agreement and outcome.validity


class TestCommitteeElection:
    def test_committee_is_deterministic_in_the_seed(self):
        ordering_a = CommitteeElection.ordering_from_seed([5, 3, 9, 1], seed=77)
        ordering_b = CommitteeElection.ordering_from_seed([1, 3, 5, 9], seed=77)
        assert ordering_a == ordering_b

    def test_elect_returns_requested_size(self):
        model = ScalableAgreementModel(random.Random(1))
        election = CommitteeElection(model, random.Random(2))
        result = election.elect(list(range(60)), byzantine=set(range(6)), committee_size=10)
        assert len(result.committee) == 10
        assert set(result.committee).issubset(set(range(60)))
        assert result.outcome.messages > 0

    def test_committee_honest_fraction_reported(self):
        model = ScalableAgreementModel(random.Random(1))
        election = CommitteeElection(model, random.Random(2))
        result = election.elect(list(range(40)), byzantine=set(), committee_size=8)
        assert result.honest_fraction == 1.0
        assert result.honest_supermajority

    def test_committee_mostly_honest_statistically(self):
        """With tau = 0.2 the average committee corruption is about 0.2."""
        model = ScalableAgreementModel(random.Random(1))
        fractions = []
        for seed in range(30):
            election = CommitteeElection(model, random.Random(seed))
            byzantine = set(range(0, 200, 5))  # 20%
            result = election.elect(list(range(200)), byzantine=byzantine, committee_size=15)
            fractions.append(1.0 - result.honest_fraction)
        mean_corruption = sum(fractions) / len(fractions)
        assert mean_corruption == pytest.approx(0.2, abs=0.08)

    def test_elect_rejects_empty_population(self):
        model = ScalableAgreementModel(random.Random(1))
        election = CommitteeElection(model, random.Random(2))
        with pytest.raises(AgreementError):
            election.elect([], byzantine=set(), committee_size=3)

    def test_elect_rejects_zero_size(self):
        model = ScalableAgreementModel(random.Random(1))
        election = CommitteeElection(model, random.Random(2))
        with pytest.raises(AgreementError):
            election.elect([1, 2, 3], byzantine=set(), committee_size=0)

    def test_failed_agreement_raises(self):
        model = ScalableAgreementModel(random.Random(1))
        election = CommitteeElection(model, random.Random(2))
        with pytest.raises(AgreementError):
            # One third corrupted -> the model refuses to agree.
            election.elect(list(range(9)), byzantine={0, 1, 2}, committee_size=3)

    def test_recommended_committee_size(self):
        assert CommitteeElection.recommended_committee_size(1024, k=2.0) == 20
        assert CommitteeElection.recommended_committee_size(1, k=2.0) == 1
