"""Reliable private point-to-point channels.

The model assumes each node can send messages to any node it *knows* through
a private, authenticated channel: identities cannot be forged and messages
cannot be tampered with in transit (the adversary attacks by corrupting
nodes, not channels).  :class:`ChannelSet` enforces the knowledge constraint
and implements the synchronous delivery discipline: a message sent in round
``r`` is delivered at the start of round ``r + 1``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional

from ..errors import SimulationError
from .message import Message, MessageKind
from .metrics import CommunicationMetrics
from .node import NodeId
from .topology import KnowledgeGraph


class ChannelSet:
    """In-flight message buffers between pairs of nodes."""

    def __init__(
        self,
        knowledge: KnowledgeGraph,
        metrics: Optional[CommunicationMetrics] = None,
        enforce_knowledge: bool = True,
    ) -> None:
        self._knowledge = knowledge
        self._metrics = metrics if metrics is not None else CommunicationMetrics()
        self._enforce_knowledge = enforce_knowledge
        self._in_flight: Dict[NodeId, List[Message]] = defaultdict(list)
        self._pending: Dict[NodeId, List[Message]] = defaultdict(list)

    @property
    def metrics(self) -> CommunicationMetrics:
        """The ledger to which every sent message is charged."""
        return self._metrics

    # ------------------------------------------------------------------
    # Sending and delivery
    # ------------------------------------------------------------------
    def send(self, message: Message, round_number: int, label: str = "") -> None:
        """Queue ``message`` for delivery at the next round.

        Raises :class:`SimulationError` when knowledge enforcement is on and
        the sender does not know the receiver, or when sender and receiver
        coincide (a node does not message itself over the network).
        """
        if message.sender == message.receiver:
            raise SimulationError(f"node {message.sender} attempted to message itself")
        if self._enforce_knowledge and not self._knowledge.knows(message.sender, message.receiver):
            raise SimulationError(
                f"node {message.sender} does not know node {message.receiver}; "
                f"cannot send {message.describe()}"
            )
        stamped = message.with_round(round_number)
        self._pending[message.receiver].append(stamped)
        self._metrics.charge_messages(1, kind=message.kind, label=label or message.topic)

    def broadcast(
        self,
        sender: NodeId,
        receivers: Iterable[NodeId],
        kind: MessageKind,
        topic: str,
        payload,
        round_number: int,
        label: str = "",
    ) -> int:
        """Send the same payload from ``sender`` to every receiver; returns the count sent."""
        count = 0
        for receiver in receivers:
            if receiver == sender:
                continue
            self.send(
                Message(sender=sender, receiver=receiver, kind=kind, topic=topic, payload=payload),
                round_number=round_number,
                label=label,
            )
            count += 1
        return count

    def advance_round(self) -> None:
        """Move pending messages into the deliverable buffer for the new round."""
        self._in_flight = self._pending
        self._pending = defaultdict(list)

    def deliver(self, receiver: NodeId) -> List[Message]:
        """Return (and consume) the messages deliverable to ``receiver`` this round."""
        return self._in_flight.pop(receiver, [])

    def drop_node(self, node_id: NodeId) -> None:
        """Discard every message addressed to a node that left or crashed."""
        self._in_flight.pop(node_id, None)
        self._pending.pop(node_id, None)

    def pending_count(self) -> int:
        """Number of messages queued for the next round (diagnostics)."""
        return sum(len(buffered) for buffered in self._pending.values())

    def in_flight_count(self) -> int:
        """Number of messages deliverable in the current round (diagnostics)."""
        return sum(len(buffered) for buffered in self._in_flight.values())
