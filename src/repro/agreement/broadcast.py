"""Flooding broadcast over the knowledge graph.

The initialization phase's *discovery* algorithm needs every honest node to
learn the identifiers of all nodes in the network.  The paper's algorithm
terminates after at most the diameter of the graph restricted to edges
adjacent to at least one honest node, with communication cost ``O(n * e)``
where ``e`` is the number of edges.  The natural realisation is repeated
neighbourhood flooding: every node forwards the identifiers it has newly
learned to all its neighbours.  Byzantine nodes may stay silent or inject
fake identifiers; honest nodes only accept identifiers that eventually gossip
back signed by their owner — in our (no-forgery) model this is captured by
discarding identifiers that do not correspond to registered nodes.

``flood_broadcast`` executes the flood round by round on the synchronous
model (a message sent in round ``r`` is delivered at the start of round
``r + 1``) and counts every message it sends.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..network.message import MessageKind
from ..network.metrics import CommunicationMetrics
from ..network.node import NodeDescriptor, NodeId
from ..network.topology import KnowledgeGraph


def flood_broadcast(
    knowledge: KnowledgeGraph,
    descriptors: Mapping[NodeId, NodeDescriptor],
    initial_items: Mapping[NodeId, Iterable[Any]],
    max_rounds: Optional[int] = None,
    metrics: Optional[CommunicationMetrics] = None,
) -> Tuple[Dict[NodeId, Set[Any]], CommunicationMetrics]:
    """Run flooding until quiescence and return each node's learned set.

    ``initial_items[v]`` is what node ``v`` injects (typically its own
    identifier).  The flood's message and round counts are charged to the
    returned ledger under the ``"discovery"`` label.
    """
    ledger = metrics if metrics is not None else CommunicationMetrics()
    learned = {node_id: set(initial_items.get(node_id, (node_id,))) for node_id in descriptors}
    # The worst a silent Byzantine node can do against discovery is not
    # forward; injecting garbage is filtered by the caller.
    relays = {
        node_id: list(knowledge.neighbours(node_id)) if node_id in knowledge else []
        for node_id, descriptor in descriptors.items()
        if not descriptor.is_byzantine
    }
    # (receiver, items) in send order: every node starts by sending what it knows.
    pending: List[Tuple[NodeId, frozenset]] = [
        (neighbour, frozenset(learned[node_id]))
        for node_id, neighbours in relays.items()
        if learned[node_id]
        for neighbour in neighbours
    ]
    messages = len(pending)
    rounds = 0
    undelivered = False
    round_cap = max_rounds if max_rounds is not None else 2 * len(descriptors) + 2
    for _ in range(round_cap):
        if not pending and not undelivered:
            break
        rounds += 1
        inboxes: Dict[NodeId, List[frozenset]] = defaultdict(list)
        for receiver, items in pending:
            inboxes[receiver].append(items)
        pending = []
        for node_id, known in learned.items():
            for items in inboxes.pop(node_id, ()):
                new_items = items - known
                if not new_items:
                    continue
                known |= new_items
                # Forward at once, per delivered message that taught something.
                for neighbour in relays.get(node_id, ()):
                    pending.append((neighbour, new_items))
                    messages += 1
        # Messages addressed to nodes outside ``descriptors`` are never
        # delivered, but they keep the flood from counting as quiescent for
        # one more round.
        undelivered = bool(inboxes)
    ledger.charge(messages, rounds, kind=MessageKind.DISCOVERY, label="discovery")
    return learned, ledger
