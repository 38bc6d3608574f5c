"""The unclustered baseline: one committee, naive flooding.

The introduction motivates clustering by contrasting it with emulating "a
single highly available process" out of the whole network, and the conclusion
quantifies the application-level gap: broadcast costs ``O(n^2)`` messages
without clustering versus ``O~(n)`` with it, and sampling has no sub-linear
implementation at all.  :class:`SingleClusterBaseline` supplies those
reference costs, both as closed-form counts and, for agreement, as the
message count of an executed whole-network Phase King for small ``n`` (so
the closed form is validated, not assumed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..agreement.phase_king import PhaseKingConsensus
from ..network.node import NodeId


@dataclass
class NaiveCostReport:
    """Reference costs of the unclustered approach for a system of ``n`` nodes."""

    network_size: int
    broadcast_messages: int
    agreement_messages: int
    sample_messages: int


class SingleClusterBaseline:
    """Closed-form and measured costs of running protocols without clustering."""

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._rng = rng if rng is not None else random.Random(0)

    # ------------------------------------------------------------------
    # Closed-form reference costs
    # ------------------------------------------------------------------
    def broadcast_messages(self, network_size: int) -> int:
        """Naive reliable broadcast: every node echoes to every node, ``n * (n - 1)``."""
        return network_size * max(0, network_size - 1)

    def agreement_messages(self, network_size: int, fault_fraction: float = 0.25) -> int:
        """Whole-network Phase-King cost: ``(f + 1)`` phases of ``~n^2`` messages."""
        faults = int(fault_fraction * network_size)
        per_phase = network_size * max(0, network_size - 1) + max(0, network_size - 1)
        return (faults + 1) * per_phase

    def sample_messages(self, network_size: int) -> int:
        """Uniform sampling without structure: contact every node, ``n - 1`` messages.

        Without a maintained overlay a node cannot sample uniformly among
        nodes it does not know; the trivial correct method is to collect the
        full membership first.
        """
        return max(0, network_size - 1)

    def report(self, network_size: int, fault_fraction: float = 0.25) -> NaiveCostReport:
        """Bundle the closed-form costs for one system size."""
        return NaiveCostReport(
            network_size=network_size,
            broadcast_messages=self.broadcast_messages(network_size),
            agreement_messages=self.agreement_messages(network_size, fault_fraction),
            sample_messages=self.sample_messages(network_size),
        )

    # ------------------------------------------------------------------
    # Measured validation (small n)
    # ------------------------------------------------------------------
    def measured_agreement_messages(
        self, network_size: int, fault_fraction: float = 0.2
    ) -> int:
        """Run whole-network Phase King and return the actually counted messages."""
        inputs: Dict[NodeId, int] = {
            node_id: node_id % 2 for node_id in range(network_size)
        }
        fault_count = int(fault_fraction * network_size)
        byzantine = set(self._rng.sample(range(network_size), fault_count)) if fault_count else set()
        protocol = PhaseKingConsensus(self._rng)
        outcome = protocol.decide(inputs, byzantine)
        return outcome.messages
