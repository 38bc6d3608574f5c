"""Cuckoo-rule baseline: limited shuffling in the style of Awerbuch–Scheideler.

The cuckoo rule (Scheideler, "How to spread adversarial nodes? Rotate!" and
the Awerbuch–Scheideler DHT line of work) places a joining node at a random
position and *evicts* the nodes in a small surrounding region, re-inserting
them at fresh random positions.  Translated to the cluster granularity used
here: a join is placed in a uniformly random cluster and a constant number of
random members of that cluster are evicted and re-placed into uniformly
random clusters.  Departures trigger no shuffling.

Compared to NOW this shuffles much less per operation (a constant number of
nodes instead of a whole cluster, and nothing on leaves), which is enough
against pure join–leave attacks but degrades when the adversary forces honest
departures; the scheme also assumes the number of clusters is kept in a
constant-factor band, so it shares the static scheme's behaviour under
polynomial growth.  Experiments E6 and E7 use it as the intermediate
comparison point between "no shuffling" and NOW.
"""

from __future__ import annotations

from typing import Optional

from ..core.cluster import ClusterId
from ..network.node import NodeId
from ..rng import shuffled
from .common import BaselineEngine


class CuckooRuleEngine(BaselineEngine):
    """Random placement with constant-size eviction on every join."""

    def __init__(self, state, evictions_per_join: int = 2) -> None:
        super().__init__(state)
        if evictions_per_join < 0:
            raise ValueError("evictions_per_join must be non-negative")
        self._evictions_per_join = evictions_per_join

    def handle_join(self, node_id: NodeId, contact_cluster: Optional[ClusterId]) -> None:
        # The newcomer lands in a uniformly random cluster regardless of whom
        # it contacted (random placement is the rule's first half)...
        host = self.random_cluster()
        self.state.clusters.add_member(host, node_id)
        # ...and a handful of incumbents of that cluster are cuckooed out.
        self._evict_members(host, exclude=node_id)
        if len(self.state.clusters.get(host)) > self.parameters.split_threshold:
            self._split(host)

    def handle_leave(self, node_id: NodeId) -> None:
        cluster_id = self._remove_from_cluster(node_id)
        if (
            len(self.state.clusters.get(cluster_id)) < self.parameters.merge_threshold
            and len(self.state.clusters) > 1
        ):
            self._merge(cluster_id)

    # ------------------------------------------------------------------
    # The cuckoo eviction
    # ------------------------------------------------------------------
    def _evict_members(self, cluster_id: ClusterId, exclude: NodeId) -> None:
        cluster = self.state.clusters.get(cluster_id)
        candidates = [member for member in cluster.member_list() if member != exclude]
        if not candidates:
            return
        eviction_count = min(self._evictions_per_join, len(candidates))
        evicted = self.state.rng.sample(candidates, eviction_count)
        other_clusters = [
            cid for cid in self.state.clusters.cluster_ids() if cid != cluster_id
        ]
        if not other_clusters:
            return
        for member in evicted:
            destination = other_clusters[self.state.rng.randrange(len(other_clusters))]
            self.state.clusters.move_member(member, destination)

    # ------------------------------------------------------------------
    # Size regulation (same thresholds as NOW, without walks)
    # ------------------------------------------------------------------
    def _split(self, cluster_id: ClusterId) -> None:
        cluster = self.state.clusters.get(cluster_id)
        ordering = shuffled(self.state.rng, cluster.member_list())
        half = len(ordering) // 2
        new_cluster = self.state.clusters.create_cluster([], created_at=self.state.time_step)
        for member in ordering[half:]:
            self.state.clusters.move_member(member, new_cluster.cluster_id)
        anchor = cluster_id if cluster_id in self.state.overlay.graph else None
        self.state.overlay.add_vertex(
            new_cluster.cluster_id, weight=float(len(new_cluster)), anchor=anchor
        )

    def _merge(self, cluster_id: ClusterId) -> None:
        cluster = self.state.clusters.dissolve_cluster(cluster_id)
        if cluster_id in self.state.overlay.graph:
            self.state.overlay.remove_vertex(cluster_id)
        survivors = self.state.clusters.cluster_ids()
        for member in sorted(cluster.members):
            host = survivors[self.state.rng.randrange(len(survivors))]
            self.state.clusters.add_member(host, member)
