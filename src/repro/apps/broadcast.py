"""Clustered broadcast: ``O~(n)`` messages instead of ``O(n^2)``.

A value originating in one cluster is flooded over the overlay at cluster
granularity: each cluster that has accepted the value forwards it once to
every neighbouring cluster it has not yet heard from, using the
majority-validated inter-cluster channel.  Every node of a cluster receives
the value as part of the intra-cluster delivery, so total cost is

    sum over traversed overlay edges of |C| * |C'|  +  intra-cluster delivery,

which is ``O(#C * max_degree * log^2 N) = O~(n)`` given Properties 1–2 —
the conclusion's claim.  Clusters whose Byzantine fraction reaches one half
can refuse to forward (or forward a forged value); the report records which
clusters received the honest value so robustness experiments can measure
coverage under partial compromise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple, Optional, Sequence, Set

from ..core.cluster import ClusterId
from ..core.engine import NowEngine
from ..core.intercluster import ClusterMessageRule, majority
from ..network.message import MessageKind
from ..network.metrics import CommunicationMetrics


class Flood(NamedTuple):
    """What one cluster-level flood reached and what it cost."""

    reached: Set[ClusterId]
    nodes_reached: int
    #: Cluster-to-cluster sends, accepted or not.
    sends: int
    #: Bipartite ``|C| * |C'|`` messages over those sends.
    edge_messages: int
    #: One relay to its ``|C| - 1`` peers inside each reached cluster.
    intra_messages: int
    #: Overlay distance from the origin to the farthest reached cluster.
    depth: int

    @property
    def messages(self) -> int:
        return self.edge_messages + self.intra_messages

    @property
    def rounds(self) -> int:
        return self.depth + 1


def flood(
    origin: ClusterId,
    sizes: Mapping[ClusterId, int],
    byzantine: Mapping[ClusterId, int],
    adjacency: Mapping[ClusterId, Sequence[ClusterId]],
) -> Flood:
    """Breadth-first flood of the overlay from ``origin``, at cluster granularity.

    Each reached cluster sends once to every neighbour not yet reached
    (``adjacency`` lists are in ascending id order), paying the full
    bipartite pattern whether or not the payload is accepted; the receivers
    accept when the honest members of the *sending* cluster alone are more
    than half of it (the rule of
    :class:`~repro.core.intercluster.InterClusterChannel`).  Neighbours
    missing from ``sizes`` are not live clusters and are skipped.
    """
    reached = {origin}
    frontier = deque([(origin, 0)])
    sends = edge_messages = depth = 0
    while frontier:
        current, distance = frontier.popleft()
        depth = max(depth, distance)
        size = sizes[current]
        accepted = majority(size - byzantine[current], size)
        for neighbour in adjacency.get(current, ()):
            if neighbour in reached or neighbour not in sizes:
                continue
            sends += 1
            edge_messages += size * sizes[neighbour]
            if accepted:
                reached.add(neighbour)
                frontier.append((neighbour, distance + 1))
    nodes_reached = sum(sizes[cluster_id] for cluster_id in reached)
    intra_messages = sum(max(0, sizes[cluster_id] - 1) for cluster_id in reached)
    return Flood(reached, nodes_reached, sends, edge_messages, intra_messages, depth)


@dataclass
class BroadcastReport:
    """Outcome of one clustered broadcast."""

    origin_cluster: ClusterId
    payload: Any
    messages: int
    rounds: int
    clusters_reached: Set[ClusterId] = field(default_factory=set)
    nodes_reached: int = 0

    def coverage(self, total_clusters: int) -> float:
        """Fraction of clusters that accepted the honest payload."""
        if total_clusters <= 0:
            return 0.0
        return len(self.clusters_reached) / total_clusters


class ClusteredBroadcast:
    """Flooding broadcast at cluster granularity over the OVER overlay."""

    def __init__(
        self,
        engine: NowEngine,
        metrics: Optional[CommunicationMetrics] = None,
    ) -> None:
        self._engine = engine
        self._metrics = (
            metrics if metrics is not None else engine.metrics.scope("app-broadcast")
        )

    def broadcast(self, payload: Any, origin_cluster: Optional[ClusterId] = None) -> BroadcastReport:
        """Flood ``payload`` from ``origin_cluster`` (default: a random cluster) to all clusters."""
        state = self._engine.state
        if origin_cluster is None:
            origin_cluster = self._engine.random_cluster()
        rule = ClusterMessageRule(state)
        sizes = state.clusters.sizes()
        graph = state.overlay.graph
        result = flood(
            origin_cluster,
            sizes,
            {cluster_id: rule.byzantine_count(cluster_id) for cluster_id in sizes},
            {vertex: graph.neighbours(vertex) for vertex in graph.vertices()},
        )
        # The ledger counts one round per cluster-to-cluster send on top of
        # the flood's own depth.
        self._metrics.charge(
            result.edge_messages,
            result.sends + result.rounds,
            kind=MessageKind.APPLICATION,
            label="broadcast",
        )
        self._metrics.charge_messages(
            result.intra_messages, kind=MessageKind.APPLICATION, label="broadcast-intra"
        )
        return BroadcastReport(
            origin_cluster=origin_cluster,
            payload=payload,
            messages=result.messages,
            rounds=result.rounds,
            clusters_reached=result.reached,
            nodes_reached=result.nodes_reached,
        )
