"""Serve-mode companion to the shard coordinator: the read model.

The live service's shard backend (:mod:`repro.trace.backend`) splits
traffic into two lanes.  Mutating requests become routed events executed by the shard
workers through :meth:`~repro.shard.coordinator.ShardCoordinator.
serve_dispatch` / ``serve_collect``.  Read-only requests never enter that
round trip: they are served from :class:`ShardReadModel`, a coordinator-side
composite view assembled from one compact per-shard snapshot (the worker
``read_view`` command) per merged window.

The read model reproduces the classic service's read semantics over the
composite population:

* ``sample`` picks the origin shard proportionally to its active slice size
  and then draws the walk endpoint from the stationary law of that shard's
  overlay (the oracle walk mode), so the composite endpoint distribution is
  exactly the size-biased law of :class:`~repro.core.randcl.RandCl` —
  ``P(C) = (n_s / N) * (|C| / n_s) = |C| / N`` — followed by randNum's
  uniform member pick.  Costs mirror ``RandCl``'s charge model (randNum +
  bipartite handoff per hop, randNum per restart) computed from the shard's
  own aggregates, plus the final ``2 m (m - 1)`` member pick.
* ``broadcast`` floods every shard's overlay with the majority-acceptance
  rule of :class:`~repro.core.intercluster.InterClusterChannel`; shards are
  disjoint overlays, so the coordinator bridges them with one validated
  cluster-to-cluster send from the origin cluster into each remote shard's
  entry cluster (lowest cluster id, deterministic).

Every draw comes from the caller's RNG (the service's private read stream) —
the read model never touches engine or directory sampling state, which is
what makes interleaved reads provably invisible to the write lane.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError


class _ShardView:
    """One shard's read snapshot: clusters, overlay, derived aggregates."""

    __slots__ = (
        "shard",
        "clusters",
        "adjacency",
        "cluster_ids",
        "byzantine_counts",
        "total_nodes",
        "max_cluster_size",
        "edge_count",
        "_cumulative",
    )

    def __init__(self, shard: int, raw: Dict[str, Any], is_byzantine) -> None:
        self.shard = shard
        self.clusters: Dict[int, List[int]] = raw["clusters"]
        self.adjacency: Dict[int, List[int]] = raw["adjacency"]
        self.cluster_ids = sorted(self.clusters)
        self.byzantine_counts = {
            cid: sum(1 for member in members if is_byzantine(member))
            for cid, members in self.clusters.items()
        }
        sizes = [len(self.clusters[cid]) for cid in self.cluster_ids]
        self.total_nodes = sum(sizes)
        self.max_cluster_size = max(sizes) if sizes else 0
        self.edge_count = sum(len(edges) for edges in self.adjacency.values()) // 2
        # Cumulative sizes over the sorted cluster ids: one O(log C) bisect
        # per stationary draw.
        cumulative: List[int] = []
        running = 0
        for size in sizes:
            running += size
            cumulative.append(running)
        self._cumulative = cumulative

    @property
    def cluster_count(self) -> int:
        return len(self.cluster_ids)

    def average_degree(self) -> float:
        if not self.cluster_ids:
            return 0.0
        return 2.0 * self.edge_count / len(self.cluster_ids)

    def sample_weighted_cluster(self, rng: random.Random) -> int:
        """A size-biased cluster draw — the walk's stationary law."""
        import bisect

        pick = rng.randrange(self.total_nodes)
        return self.cluster_ids[bisect.bisect_right(self._cumulative, pick)]

    def accepts_from(self, sender: int) -> bool:
        """The majority rule: honest members of ``sender`` alone clear 1/2."""
        size = len(self.clusters[sender])
        honest = size - self.byzantine_counts[sender]
        return honest > size / 2.0

    def expected_effort(self, parameters) -> Tuple[int, int]:
        """Expected (hops, restarts) of the equivalent simulated walk.

        Mirrors :meth:`~repro.walks.sampler.ClusterSampler._compute_expected_
        effort` with the segment duration :class:`~repro.core.randcl.RandCl`
        derives (hop budget over average degree), evaluated on the shard's
        own aggregates.
        """
        cluster_count = self.cluster_count
        if not cluster_count:
            return (0, 1)
        average_degree = max(1.0, self.average_degree())
        current_size = max(2, self.total_nodes)
        hop_budget = float(parameters.walk_length(current_size))
        segment_duration = max(2.0, hop_budget / average_degree)
        mean_weight = self.total_nodes / cluster_count
        expected_restarts = (
            max(1.0, self.max_cluster_size / mean_weight) if mean_weight > 0 else 1.0
        )
        expected_hops = segment_duration * average_degree * expected_restarts
        return (max(1, int(round(expected_hops))), max(1, int(round(expected_restarts))))

    def walk_costs(self, hops: int, restarts: int) -> Tuple[int, int]:
        """RandCl's charge model on this shard's aggregates."""
        cluster_count = self.cluster_count
        average_size = self.total_nodes / cluster_count if cluster_count else 1.0
        randnum_messages = 2.0 * average_size * max(0.0, average_size - 1.0)
        per_hop_messages = randnum_messages + average_size * average_size
        messages = int(round(hops * per_hop_messages + restarts * randnum_messages))
        rounds = int(hops * 3 + restarts * 2)
        return messages, rounds


class ShardReadModel:
    """Composite read state over per-shard snapshots, fetched lazily.

    The session invalidates the model after every merged write window; the
    next read triggers exactly one ``read_view`` round trip (amortised over
    every read until the next write window).  ``fresh`` tells the pump
    whether reads can be served *during* worker execution — a stale model
    would have to queue its fetch behind the in-flight apply batch and block
    on it, so the pump defers those reads to the window boundary instead.
    """

    def __init__(self, coordinator) -> None:
        self._coordinator = coordinator
        self._views: Optional[List[_ShardView]] = None
        self.fetches = 0

    @property
    def fresh(self) -> bool:
        return self._views is not None

    def invalidate(self) -> None:
        self._views = None

    def ensure(self) -> List[_ShardView]:
        """Fetch the per-shard views if stale (one worker round trip)."""
        if self._views is None:
            coordinator = self._coordinator
            raw = coordinator._gather_shards(
                [(shard, ()) for shard in range(coordinator.shards)], "read_view"
            )
            is_byzantine = coordinator.directory.nodes.is_byzantine
            self._views = [
                _ShardView(shard, raw[shard], is_byzantine)
                for shard in range(coordinator.shards)
            ]
            self.fetches += 1
        return self._views

    # ------------------------------------------------------------------
    # Composite reads
    # ------------------------------------------------------------------
    def _pick_origin_shard(self, views: Sequence[_ShardView], rng: random.Random):
        population = sum(view.total_nodes for view in views)
        if population <= 0:
            raise ConfigurationError("the composite population is empty")
        pick = rng.randrange(population)
        for view in views:
            if pick < view.total_nodes:
                return view
            pick -= view.total_nodes
        raise AssertionError("size-biased shard pick fell off the end")

    def sample(self, rng: random.Random) -> Dict[str, Any]:
        """One uniform node sample over the composite population.

        Size-biased shard pick, stationary (oracle-mode) endpoint draw
        within the shard, uniform member pick — composing to the uniform
        node law of classic randCl + randNum — with costs from the same
        charge models.
        """
        views = self.ensure()
        view = self._pick_origin_shard(views, rng)
        cluster_id = view.sample_weighted_cluster(rng)
        members = view.clusters[cluster_id]
        node_id = members[rng.randrange(len(members))]
        hops, restarts = view.expected_effort(self._coordinator.params)
        messages, rounds = view.walk_costs(hops, restarts)
        member_count = len(members)
        messages += 2 * member_count * (member_count - 1)
        rounds += 2
        return {
            "node_id": node_id,
            "cluster_id": cluster_id,
            "shard": view.shard,
            "is_byzantine": self._coordinator.directory.nodes.is_byzantine(node_id),
            "messages": messages,
            "rounds": rounds,
            "walk_hops": hops,
        }

    def _flood(self, view: _ShardView, entry: int) -> Tuple[set, int, int]:
        """BFS flood of one shard's overlay from ``entry``.

        Mirrors :class:`~repro.apps.broadcast.ClusteredBroadcast`: each
        reached cluster forwards once to every unreached neighbour (sorted
        order), charging the bipartite ``|C| * |C'|`` pattern whether or not
        the transfer is accepted; acceptance needs an honest majority in the
        *sending* cluster.  Returns (reached ids, messages, max depth).
        """
        reached = {entry}
        frontier = deque([(entry, 0)])
        messages = 0
        max_depth = 0
        clusters = view.clusters
        adjacency = view.adjacency
        while frontier:
            current, depth = frontier.popleft()
            max_depth = max(max_depth, depth)
            current_size = len(clusters[current])
            sender_ok = view.accepts_from(current)
            for neighbour in adjacency.get(current, ()):
                if neighbour in reached or neighbour not in clusters:
                    continue
                messages += current_size * len(clusters[neighbour])
                if sender_ok:
                    reached.add(neighbour)
                    frontier.append((neighbour, depth + 1))
        return reached, messages, max_depth

    def broadcast(self, rng: random.Random) -> Dict[str, Any]:
        """One composite clustered broadcast over every shard's overlay.

        The origin cluster is drawn like the classic service's (uniform over
        the origin shard's clusters, shard picked size-biased); remote
        shards are disjoint overlays, so the coordinator bridges the payload
        into each one's entry cluster (lowest id) with one validated
        cluster-to-cluster send, adding one round of depth.
        """
        views = self.ensure()
        origin_view = self._pick_origin_shard(views, rng)
        origin_cluster = origin_view.cluster_ids[
            rng.randrange(len(origin_view.cluster_ids))
        ]
        origin_ok = origin_view.accepts_from(origin_cluster)
        origin_size = len(origin_view.clusters[origin_cluster])

        total_messages = 0
        total_rounds = 0
        clusters_reached = 0
        nodes_reached = 0
        total_clusters = 0
        for view in views:
            total_clusters += view.cluster_count
            if view is origin_view:
                entry: Optional[int] = origin_cluster
                bridge_rounds = 0
            else:
                entry = view.cluster_ids[0] if view.cluster_ids else None
                if entry is None:
                    continue
                # The bridge send is charged even when a compromised origin
                # suppresses the payload (the bipartite pattern still runs).
                total_messages += origin_size * len(view.clusters[entry])
                bridge_rounds = 1
                if not origin_ok:
                    continue
            reached, messages, depth = self._flood(view, entry)
            total_messages += messages
            total_rounds = max(total_rounds, bridge_rounds + depth + 1)
            clusters_reached += len(reached)
            nodes_reached += sum(len(view.clusters[cid]) for cid in reached)
        coverage = clusters_reached / total_clusters if total_clusters else 0.0
        return {
            "origin_cluster": origin_cluster,
            "origin_shard": origin_view.shard,
            "clusters_reached": clusters_reached,
            "cluster_count": total_clusters,
            "nodes_reached": nodes_reached,
            "coverage": coverage,
            "messages": total_messages,
            "rounds": total_rounds,
        }
