"""Golden values of the two protocols executed message by message.

Phase King and flooding discovery are the only protocols whose message and
round counts are counted send by send rather than charged from a formula.
These tests pin their exact outputs: the decided value, the message and round
counts, the learned sets, and the state of the strategy's RNG afterwards (the
equivocating strategy draws from it once per Byzantine send). Any rewrite of
either loop must reproduce them bit for bit.
"""

from __future__ import annotations

import random

import pytest

from repro.agreement.broadcast import flood_broadcast
from repro.agreement.phase_king import PhaseKingConsensus, silent_strategy
from repro.baselines.single_cluster import SingleClusterBaseline
from repro.core.initialization import NowInitializer
from repro.network.node import NodeDescriptor, NodeRole
from repro.network.topology import KnowledgeGraph
from repro.params import default_parameters


@pytest.mark.parametrize(
    "seed, messages, next_draw",
    [
        (0, 501, 0.6127731798686067),
        (1, 495, 0.04348729035652743),
        (2, 499, 0.5042488169833176),
    ],
)
def test_phase_king_equivocating(seed, messages, next_draw):
    rng = random.Random(seed)
    outcome = PhaseKingConsensus(rng).decide({i: i % 2 for i in range(13)}, {3, 7})
    assert (outcome.decided_value, outcome.messages, outcome.rounds) == (0, messages, 6)
    assert outcome.agreement and outcome.validity
    assert rng.random() == next_draw


def test_phase_king_silent():
    rng = random.Random(0)
    protocol = PhaseKingConsensus(rng, byzantine_strategy=silent_strategy())
    outcome = protocol.decide({i: i % 3 for i in range(17)}, {0, 4, 9})
    assert (outcome.decided_value, outcome.messages, outcome.rounds) == (1, 944, 8)
    assert outcome.agreement and outcome.validity
    # The silent strategy never draws.
    assert rng.random() == 0.8444218515250481


def test_single_cluster_baseline_measured_agreement():
    assert SingleClusterBaseline(random.Random(5)).measured_agreement_messages(40) == 14110


def test_flood_on_ring_with_chords_and_silent_byzantine_nodes():
    rng = random.Random(3)
    byzantine = {2, 5, 11, 17, 23}
    knowledge = KnowledgeGraph()
    ring = list(range(30))
    rng.shuffle(ring)
    for index, node in enumerate(ring):
        knowledge.connect(node, ring[(index + 1) % len(ring)])
    for _ in range(6):
        knowledge.connect(*rng.sample(range(30), 2))
    descriptors = {
        node: NodeDescriptor(
            node_id=node, role=NodeRole.BYZANTINE if node in byzantine else NodeRole.HONEST
        )
        for node in range(30)
    }
    learned, ledger = flood_broadcast(knowledge, descriptors, {node: {node} for node in range(30)})
    assert (ledger.messages, ledger.rounds) == (994, 10)
    assert [len(learned[node]) for node in range(30)] == [
        20, 20, 25, 20, 1, 21, 20, 20, 20, 20, 20, 6, 20, 20, 20,
        4, 20, 22, 20, 4, 4, 20, 20, 21, 20, 20, 20, 20, 4, 20,
    ]
    # Honest node 4's only neighbours (11 and 17) are silent Byzantine nodes.
    assert learned[4] == {4}


@pytest.mark.parametrize(
    "initial_size, seed, messages, rounds",
    [(96, 400, 22360, 10), (160, 401, 63072, 12)],
)
def test_message_mode_discovery(initial_size, seed, messages, rounds):
    # The parameters of benchmarks/common.py's scaled_parameters(16384, tau=0.1).
    parameters = default_parameters(
        max_size=16384, k=3.0, l=2.0, alpha=0.1, tau=0.1, epsilon=0.05
    )
    initializer = NowInitializer(
        parameters, random.Random(seed), discovery_mode="auto", message_discovery_limit=200
    )
    _, report = initializer.build(initial_size=initial_size, byzantine_fraction=0.1)
    assert report.discovery_mode == "message"
    assert (report.discovery_messages, report.discovery_rounds) == (messages, rounds)
