"""Inter-cluster communication with the majority acceptance rule.

The paper's correctness hinges on a simple validation rule: a node receiving
a message "from a cluster ``C``" considers it valid if and only if it
receives the same message from more than half of the nodes of ``C``.  As long
as ``C`` contains more than two thirds of honest nodes, Byzantine members can
neither forge a cluster message nor prevent one (honest members alone are a
majority), so the cluster behaves like a single correct process.

:class:`ClusterMessageRule` evaluates the rule for a given ground-truth
composition, and :class:`InterClusterChannel` applies it to cluster-to-cluster
sends, charging the full bipartite message pattern and reporting whether the
payload was accepted, forged or suppressed.  The application layer
(:mod:`repro.apps`) builds its broadcast/aggregation/sampling services on this
channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..network.message import MessageKind
from ..network.metrics import CommunicationMetrics
from .cluster import ClusterId
from .state import SystemState


@dataclass
class ClusterSendOutcome:
    """Result of a cluster-to-cluster send."""

    sender: ClusterId
    receiver: ClusterId
    payload: Any
    accepted: bool
    forged: bool
    messages: int
    honest_senders: int
    byzantine_senders: int


def majority(count: int, size: int) -> bool:
    """The acceptance rule: ``count`` identical senders out of a cluster of
    ``size`` are more than half of it."""
    return count > size / 2.0


class ClusterMessageRule:
    """Evaluates the "more than half of the cluster" acceptance rule."""

    def __init__(self, state: SystemState) -> None:
        self._state = state

    def honest_count(self, cluster_id: ClusterId) -> int:
        """Number of honest members in ``cluster_id`` (ground truth)."""
        cluster = self._state.clusters.get(cluster_id)
        return sum(
            1 for node_id in cluster.members if not self._state.nodes.is_byzantine(node_id)
        )

    def byzantine_count(self, cluster_id: ClusterId) -> int:
        """Number of Byzantine members in ``cluster_id`` (ground truth)."""
        cluster = self._state.clusters.get(cluster_id)
        return sum(
            1 for node_id in cluster.members if self._state.nodes.is_byzantine(node_id)
        )

    def can_send_validly(self, cluster_id: ClusterId) -> bool:
        """Whether the honest members alone clear the more-than-half threshold."""
        size = len(self._state.clusters.get(cluster_id))
        return majority(self.honest_count(cluster_id), size)

    def can_forge(self, cluster_id: ClusterId) -> bool:
        """Whether the Byzantine members alone clear the threshold (cluster captured)."""
        size = len(self._state.clusters.get(cluster_id))
        return majority(self.byzantine_count(cluster_id), size)


class InterClusterChannel:
    """Cluster-to-cluster messaging with measured cost and the acceptance rule."""

    def __init__(self, state: SystemState, metrics: Optional[CommunicationMetrics] = None) -> None:
        self._state = state
        self._rule = ClusterMessageRule(state)
        self._metrics = metrics

    @property
    def rule(self) -> ClusterMessageRule:
        """The underlying acceptance-rule evaluator."""
        return self._rule

    def send(
        self,
        sender: ClusterId,
        receiver: ClusterId,
        payload: Any,
        label: str = "intercluster",
        adversarial_payload: Any = None,
    ) -> ClusterSendOutcome:
        """Send ``payload`` from cluster ``sender`` to cluster ``receiver``.

        Honest members send ``payload``; Byzantine members send
        ``adversarial_payload`` when provided (or stay silent).  The outcome
        records whether the honest payload was accepted by the receiver and
        whether the adversary managed to forge its own payload instead.
        """
        sender_cluster = self._state.clusters.get(sender)
        receiver_cluster = self._state.clusters.get(receiver)
        honest = self._rule.honest_count(sender)
        byzantine = self._rule.byzantine_count(sender)
        size = len(sender_cluster)

        messages = size * len(receiver_cluster)
        if self._metrics is not None:
            self._metrics.charge_messages(
                messages, kind=MessageKind.APPLICATION, label=label
            )
            self._metrics.charge_rounds(1, label=label)

        accepted = majority(honest, size)
        forged = adversarial_payload is not None and majority(byzantine, size)
        return ClusterSendOutcome(
            sender=sender,
            receiver=receiver,
            payload=payload if accepted else (adversarial_payload if forged else None),
            accepted=accepted,
            forged=forged,
            messages=messages,
            honest_senders=honest,
            byzantine_senders=byzantine,
        )

    def broadcast_to_neighbours(
        self, sender: ClusterId, payload: Any, label: str = "intercluster"
    ):
        """Send ``payload`` from ``sender`` to every adjacent cluster; yields outcomes."""
        overlay_graph = self._state.overlay.graph
        outcomes = []
        if sender not in overlay_graph:
            return outcomes
        for neighbour in sorted(overlay_graph.neighbours(sender)):
            if neighbour in self._state.clusters:
                outcomes.append(self.send(sender, neighbour, payload, label=label))
        return outcomes
