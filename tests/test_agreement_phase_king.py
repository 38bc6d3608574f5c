"""Unit tests for the Phase-King consensus and the agreement interface."""

from __future__ import annotations

import random

import pytest

from repro.agreement.interface import (
    AgreementOutcome,
    check_agreement,
    check_validity,
)
from repro.agreement.phase_king import (
    PhaseKingConsensus,
    equivocating_strategy,
    silent_strategy,
)


class TestInterfaceHelpers:
    def test_check_agreement_empty(self):
        assert check_agreement({})

    def test_check_agreement_true_false(self):
        assert check_agreement({1: "a", 2: "a"})
        assert not check_agreement({1: "a", 2: "b"})

    def test_check_validity(self):
        assert check_validity({1: 0, 2: 0}, {1: 0, 2: 1})
        assert not check_validity({1: 5}, {1: 0, 2: 1})

    def test_outcome_succeeded_property(self):
        assert AgreementOutcome(agreement=True, validity=True).succeeded
        assert not AgreementOutcome(agreement=True, validity=False).succeeded


class TestPhaseKingNoFaults:
    def test_unanimous_inputs_decide_that_value(self):
        protocol = PhaseKingConsensus(random.Random(0))
        inputs = {node: 1 for node in range(7)}
        outcome = protocol.decide(inputs, byzantine=set())
        assert outcome.agreement
        assert outcome.validity
        assert outcome.decided_value == 1

    def test_mixed_inputs_reach_agreement(self):
        protocol = PhaseKingConsensus(random.Random(0))
        inputs = {node: node % 2 for node in range(9)}
        outcome = protocol.decide(inputs, byzantine=set())
        assert outcome.agreement
        assert outcome.validity
        assert outcome.decided_value in (0, 1)

    def test_empty_inputs(self):
        protocol = PhaseKingConsensus(random.Random(0))
        outcome = protocol.decide({}, byzantine=set())
        assert outcome.agreement and outcome.validity

    def test_messages_and_rounds_counted(self):
        protocol = PhaseKingConsensus(random.Random(0))
        inputs = {node: 0 for node in range(6)}
        outcome = protocol.decide(inputs, byzantine=set())
        # one phase (f=0): all-to-all (6*5=30) plus the king's broadcast (5).
        assert outcome.messages == 35
        assert outcome.rounds == 2


class TestPhaseKingWithByzantine:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_agreement_with_equivocating_minority(self, seed):
        """n > 4f: 13 nodes, 2 Byzantine equivocators."""
        rng = random.Random(seed)
        protocol = PhaseKingConsensus(rng, byzantine_strategy=equivocating_strategy(rng))
        inputs = {node: node % 2 for node in range(13)}
        byzantine = {3, 7}
        outcome = protocol.decide(inputs, byzantine)
        assert outcome.agreement
        assert outcome.validity

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_agreement_with_silent_byzantine(self, seed):
        rng = random.Random(seed)
        protocol = PhaseKingConsensus(rng, byzantine_strategy=silent_strategy())
        inputs = {node: 1 for node in range(9)}
        byzantine = {0, 8}
        outcome = protocol.decide(inputs, byzantine)
        assert outcome.agreement
        assert outcome.decided_value == 1  # unanimous honest inputs must win

    def test_unanimous_honest_value_survives_attack(self):
        """Validity: when all honest nodes propose v, the decision is v."""
        for seed in range(5):
            rng = random.Random(seed)
            protocol = PhaseKingConsensus(rng, byzantine_strategy=equivocating_strategy(rng))
            inputs = {node: 1 for node in range(12)}
            byzantine = {2, 5}
            outcome = protocol.decide(inputs, byzantine)
            assert outcome.agreement
            assert outcome.decided_value == 1

    def test_byzantine_decisions_excluded_from_output(self):
        rng = random.Random(1)
        protocol = PhaseKingConsensus(rng)
        inputs = {node: 0 for node in range(8)}
        byzantine = {1}
        outcome = protocol.decide(inputs, byzantine)
        assert 1 not in outcome.decisions
        assert set(outcome.decisions) == set(range(8)) - {1}

    def test_tolerated_fraction_reported(self):
        protocol = PhaseKingConsensus(random.Random(0))
        assert protocol.tolerated_fraction() == pytest.approx(0.25)
        assert protocol.supports(participant_count=13, byzantine_count=3)
        assert not protocol.supports(participant_count=12, byzantine_count=3)

    def test_cost_scales_with_fault_bound(self):
        protocol = PhaseKingConsensus(random.Random(0))
        inputs = {node: node % 2 for node in range(16)}
        cheap = protocol.decide(inputs, byzantine=set())
        costly = protocol.decide(inputs, byzantine={0, 1, 2})
        assert costly.rounds > cheap.rounds
        assert costly.messages > cheap.messages

    def test_byzantine_first_king_cannot_break_agreement(self):
        """The first phase's king (the smallest id) equivocates; a later honest king fixes it."""
        for seed in range(5):
            rng = random.Random(seed)
            protocol = PhaseKingConsensus(rng)
            outcome = protocol.decide({node: node % 2 for node in range(13)}, byzantine={0, 1})
            assert outcome.agreement and outcome.validity


class TestPhaseKingExecution:
    """Who sends what to whom, and how every send is counted."""

    @pytest.mark.parametrize("size", [2, 4, 7, 10])
    def test_fault_free_cost_is_all_to_all_plus_king(self, size):
        outcome = PhaseKingConsensus(random.Random(0)).decide(
            {node: node % 2 for node in range(size)}, byzantine=set()
        )
        # One phase: n(n-1) value messages, then n-1 from the king.
        assert outcome.messages == size * (size - 1) + (size - 1)
        assert outcome.rounds == 2

    @pytest.mark.parametrize("fault_bound", [0, 1, 2, 3])
    def test_two_rounds_per_phase(self, fault_bound):
        protocol = PhaseKingConsensus(random.Random(0), byzantine_strategy=silent_strategy())
        outcome = protocol.decide(
            {node: 1 for node in range(13)}, byzantine=set(range(fault_bound))
        )
        assert outcome.rounds == 2 * (fault_bound + 1)

    @pytest.mark.parametrize(
        "size, byzantine",
        [(9, {0, 8}), (13, {3, 7, 11}), (17, {1, 2, 5, 16})],
    )
    def test_silent_byzantine_senders_are_not_counted(self, size, byzantine):
        protocol = PhaseKingConsensus(random.Random(0), byzantine_strategy=silent_strategy())
        outcome = protocol.decide({node: node % 2 for node in range(size)}, byzantine)
        honest_senders = size - len(byzantine)
        kings = range(len(byzantine) + 1)  # phase k's king is the k-th smallest id
        expected = sum(
            honest_senders * (size - 1) + (0 if king in byzantine else size - 1)
            for king in kings
        )
        assert outcome.messages == expected

    def test_strategy_is_asked_once_per_byzantine_send(self):
        """Never for a self-send, and in round 2 only for the phase's king."""
        calls = []

        def recording(sender, receiver, phase, round_index):
            calls.append((sender, receiver, phase, round_index))
            return receiver % 2

        size, byzantine = 9, {0, 5}
        PhaseKingConsensus(random.Random(0), byzantine_strategy=recording).decide(
            {node: 0 for node in range(size)}, byzantine
        )
        assert all(sender in byzantine and sender != receiver for sender, receiver, _, _ in calls)
        assert {phase for _, _, phase, _ in calls} == {1, 2, 3}
        round_two = [(sender, phase) for sender, _, phase, index in calls if index == 2]
        # Only phase 1 has a Byzantine king (node 0).
        assert round_two == [(0, 1)] * (size - 1)
        round_one = [call for call in calls if call[3] == 1]
        assert len(round_one) == 3 * len(byzantine) * (size - 1)

    def test_each_withheld_message_lowers_the_count_by_one(self):
        def speaking(sender, receiver, phase, round_index):
            return 1

        def withholding_from_node_one(sender, receiver, phase, round_index):
            return None if receiver == 1 else 1

        inputs = {node: 0 for node in range(9)}
        full = PhaseKingConsensus(random.Random(0), byzantine_strategy=speaking).decide(
            inputs, {4, 8}
        )
        partial = PhaseKingConsensus(
            random.Random(0), byzantine_strategy=withholding_from_node_one
        ).decide(inputs, {4, 8})
        # Three phases, two Byzantine senders, one round-1 message each withheld.
        assert full.messages - partial.messages == 3 * 2
        assert partial.decided_value == full.decided_value == 0

    def test_single_participant_decides_its_input(self):
        outcome = PhaseKingConsensus(random.Random(0)).decide({5: "x"}, byzantine=set())
        assert outcome.decisions == {5: "x"}
        assert (outcome.messages, outcome.rounds) == (0, 2)

    def test_values_and_ids_are_arbitrary(self):
        """Non-binary values, non-contiguous identifiers."""
        inputs = {node: "commit" for node in (10, 20, 35, 47, 58, 61, 73, 88, 90)}
        rng = random.Random(4)
        outcome = PhaseKingConsensus(rng).decide(inputs, byzantine={35, 88})
        assert outcome.agreement
        assert outcome.decided_value == "commit"
        assert set(outcome.decisions) == set(inputs) - {35, 88}
