"""The read model: how ``serve`` answers ``sample`` and ``broadcast``, and what an adversary sees.

Each driver has one :class:`ShardReadModel` (its ``read_model``) over its
``read_views``: one per-engine view for the single-engine runner, one per
shard for the coordinator (the worker ``read_view`` command), rebuilt
lazily after each collected write window.  The live session
(:mod:`repro.service.session`) and an adversary
(:class:`~repro.adversary.base.AdversaryContext`) read it, so reads never
enter the write lane.  A cluster goes by one composite name
(:func:`~repro.shard.messages.cluster_name`) in the views, the responses,
a contact join and the trace.

One read semantic over the composite population:

* ``sample`` picks a view proportionally to its population, draws the walk
  endpoint from the stationary law of that view's overlay and then a
  uniform member — ``P(C) = (n_s / N) * (|C| / n_s) = |C| / N``, the law of
  :class:`~repro.core.randcl.RandCl` followed by randNum's pick.  The cost
  reported is the expected effort of the equivalent simulated walk, priced
  by ``RandCl``'s own functions (:func:`~repro.walks.sampler.expected_effort`,
  :func:`~repro.core.randcl.segment_duration`, ``hop_charges``,
  ``walk_cost``) on the view's aggregates, plus randNum's member pick.  The
  engine's ``walk_mode`` governs the maintenance walks of joins and leaves
  only, never reads.
* ``broadcast`` runs :func:`repro.apps.broadcast.flood` — the flood of
  :class:`~repro.apps.broadcast.ClusteredBroadcast` — over every view's
  overlay.  Shards are disjoint overlays, so the payload is bridged with one
  validated cluster-to-cluster send from the origin cluster into each remote
  shard's entry cluster (lowest name, deterministic).

Every draw comes from the caller's RNG (the service's private read stream) —
the read model never touches engine or directory sampling state, which is
what makes interleaved reads provably invisible to the write lane.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import partial
from itertools import accumulate
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..apps.broadcast import flood
from ..core.intercluster import majority
from ..core.randcl import hop_charges, segment_duration, walk_cost
from ..core.randnum import randnum_cost
from ..errors import ConfigurationError
from ..walks.sampler import expected_effort
from .messages import cluster_address, cluster_name


def engine_view(
    engine, l2g: Optional[Mapping[int, int]] = None, shard: int = 0, shards: int = 0
) -> Dict[str, Any]:
    """A compact snapshot of one engine's clusters and overlay, by cluster name.

    ``clusters`` maps each name to its members in slot order (a read that
    indexes into one sorts it), through ``l2g`` when given (a shard worker's
    local-to-global id map); ``byzantine`` to the corruption tracker's count;
    ``adjacency`` is the OVER overlay, neighbours in ascending order.
    """
    state = engine.state
    clusters = {
        cluster.cluster_id: (
            list(cluster.members)
            if l2g is None
            else [l2g[member] for member in cluster.members]
        )
        for cluster in state.clusters.clusters()
    }
    byzantine = state.corruption.counts()
    graph = state.overlay.graph
    adjacency = {vertex: graph.neighbours(vertex) for vertex in graph.vertices()}
    if shards > 1:
        name = partial(cluster_name, shard, shards=shards)
        clusters = {name(cid): members for cid, members in clusters.items()}
        byzantine = {name(cid): count for cid, count in byzantine.items()}
        adjacency = {name(vertex): list(map(name, others)) for vertex, others in adjacency.items()}
    return {"clusters": clusters, "byzantine": byzantine, "adjacency": adjacency}


class _ShardView:
    """One engine's read snapshot plus what is derived from it: the stationary
    law's table, and on first use a cluster's sorted members and the walk's price."""

    def __init__(self, shard: int, raw: Dict[str, Any], params) -> None:
        self.shard = shard
        self.clusters: Dict[int, List[int]] = raw["clusters"]
        self._sorted: Dict[int, List[int]] = {}
        self.adjacency: Dict[int, List[int]] = raw["adjacency"]
        self.byzantine: Dict[int, int] = raw["byzantine"]
        self.cluster_ids = sorted(self.clusters)
        self.sizes = {cid: len(members) for cid, members in self.clusters.items()}
        # Cumulative sizes over the sorted names: one O(log C) bisect per
        # stationary draw.
        self._cumulative = list(accumulate(self.sizes[cid] for cid in self.cluster_ids))
        self.total_nodes = self._cumulative[-1] if self._cumulative else 0
        self._params = params
        self._walk: Optional[Tuple[float, float, float]] = None

    @property
    def walk(self) -> Tuple[float, float, float]:
        """``(hops, messages, rounds)`` of the expected walk on this overlay."""
        if self._walk is None:
            cluster_count = len(self.cluster_ids)
            edges = sum(len(neighbours) for neighbours in self.adjacency.values()) // 2
            average_degree = 2.0 * edges / cluster_count if cluster_count else 0.0
            hops, restarts = expected_effort(
                cluster_count,
                average_degree,
                self.total_nodes,
                max(self.sizes.values(), default=0),
                segment_duration(self._params, max(2, self.total_nodes), average_degree),
            )
            charges = hop_charges(cluster_count, self.total_nodes)
            self._walk = (hops, *walk_cost(hops, restarts, charges))
        return self._walk

    def members(self, cluster_id: int) -> List[int]:
        """A cluster's members, ascending (sorted once per view, on first read)."""
        members = self._sorted.get(cluster_id)
        if members is None:
            members = self._sorted[cluster_id] = sorted(self.clusters[cluster_id])
        return members

    def sample_weighted_cluster(self, rng: random.Random) -> int:
        """A size-biased cluster draw — the walk's stationary law."""
        pick = rng.randrange(self.total_nodes)
        return self.cluster_ids[bisect_right(self._cumulative, pick)]


class ShardReadModel:
    """Composite read state over per-engine views, fetched lazily.

    ``fetch()`` returns one raw view (:func:`engine_view`) per shard, in
    shard order; ``is_byzantine`` is the ground-truth role lookup over the
    ids those views name.  Its driver invalidates the model after every
    collected write window; the next read triggers exactly one ``fetch``
    (amortised over every read until the next write window).  ``fresh``
    tells the pump whether reads can be served *during* a window — a stale
    model would have to queue its fetch behind the in-flight apply batch
    and block on it, so the pump defers those reads to the window boundary
    instead.
    """

    def __init__(
        self, fetch: Callable[[], Sequence[Dict[str, Any]]], params, is_byzantine
    ) -> None:
        self._fetch = fetch
        self._params = params
        self._is_byzantine = is_byzantine
        self._views: Optional[List[_ShardView]] = None
        self._population = 0

    @property
    def fresh(self) -> bool:
        return self._views is not None

    def invalidate(self) -> None:
        self._views = None

    def ensure(self) -> List[_ShardView]:
        """Fetch the views if stale (on shards: one worker round trip)."""
        if self._views is None:
            self._views = [
                _ShardView(shard, raw, self._params)
                for shard, raw in enumerate(self._fetch())
            ]
            self._population = sum(view.total_nodes for view in self._views)
        return self._views

    def view_of(self, name: int) -> _ShardView:
        """The view that holds the cluster called ``name`` if it lives."""
        views = self.ensure()
        return views[cluster_address(name, len(views))[0]]

    # ------------------------------------------------------------------
    # Composite reads
    # ------------------------------------------------------------------
    def _pick_origin_shard(self, views: Sequence[_ShardView], rng: random.Random):
        if self._population <= 0:
            raise ConfigurationError("the composite population is empty")
        pick = rng.randrange(self._population)
        for view in views:
            if pick < view.total_nodes:
                return view
            pick -= view.total_nodes
        raise AssertionError("size-biased shard pick fell off the end")

    def sample(self, rng: random.Random) -> Dict[str, Any]:
        """One uniform node sample over the composite population.

        Size-biased shard pick, stationary endpoint draw within the shard,
        uniform member pick — composing to the uniform node law of randCl +
        randNum.
        """
        view = self._pick_origin_shard(self.ensure(), rng)
        cluster_id = view.sample_weighted_cluster(rng)
        members = view.members(cluster_id)
        node_id = members[rng.randrange(len(members))]
        hops, messages, rounds = view.walk
        pick_messages, pick_rounds = randnum_cost(len(members))
        return {
            "node_id": node_id,
            "cluster_id": cluster_id,
            "shard": view.shard,
            "is_byzantine": self._is_byzantine(node_id),
            "messages": messages + pick_messages,
            "rounds": rounds + pick_rounds,
            "walk_hops": hops,
        }

    def broadcast(self, rng: random.Random) -> Dict[str, Any]:
        """One clustered broadcast over every view's overlay.

        The origin cluster is uniform over the origin shard's clusters
        (shard picked size-biased).  Each remote shard is entered through
        its lowest cluster id by one cluster-to-cluster send from the origin
        cluster, adding one round of depth.
        """
        views = self.ensure()
        origin_view = self._pick_origin_shard(views, rng)
        origin_cluster = origin_view.cluster_ids[
            rng.randrange(len(origin_view.cluster_ids))
        ]
        origin_size = origin_view.sizes[origin_cluster]
        origin_ok = majority(origin_size - origin_view.byzantine[origin_cluster], origin_size)

        total_messages = 0
        total_rounds = 0
        clusters_reached = 0
        nodes_reached = 0
        total_clusters = 0
        for view in views:
            total_clusters += len(view.cluster_ids)
            if view is origin_view:
                entry = origin_cluster
                bridge_rounds = 0
            elif view.cluster_ids:
                entry = view.cluster_ids[0]
                # The bridge send is charged even when a compromised origin
                # suppresses the payload (the bipartite pattern still runs).
                total_messages += origin_size * view.sizes[entry]
                bridge_rounds = 1
                if not origin_ok:
                    continue
            else:
                continue
            result = flood(entry, view.sizes, view.byzantine, view.adjacency)
            total_messages += result.messages
            total_rounds = max(total_rounds, bridge_rounds + result.rounds)
            clusters_reached += len(result.reached)
            nodes_reached += result.nodes_reached
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
