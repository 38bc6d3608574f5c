"""Clusters and the cluster registry.

A cluster is the unit of reliability in NOW: its nodes form a clique (every
member knows every other member), an overlay edge between two clusters means
full bipartite knowledge, and a message "from a cluster" is accepted by a
neighbour only when more than half of the cluster's members sent it.  As long
as more than two thirds of a cluster's members are honest, the cluster as a
whole behaves like a single correct process.

:class:`Cluster` is deliberately ignorant of which of its members are
Byzantine — that ground truth lives in the
:class:`~repro.core.state.NodeRegistry` — so protocol code cannot
accidentally "cheat" by reading the adversary's hand.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import (
    ConfigurationError,
    ProtocolViolationError,
    UnknownClusterError,
    UnknownNodeError,
)
from ..network.node import NodeId

ClusterId = int


@dataclass
class Cluster:
    """A set of node identifiers plus bookkeeping about its history."""

    cluster_id: ClusterId
    members: Set[NodeId] = field(default_factory=set)
    created_at: int = 0
    exchanges_performed: int = 0
    last_full_exchange: Optional[int] = None

    def __post_init__(self) -> None:
        self.members = set(self.members)
        # Sorted membership, kept in place by every mutation, so an exchange
        # round picks from one live view of it (``sorted_members``) with no
        # sort and no copy per swap; the exchanging cluster's own view is
        # rebuilt once, at the end of its round.
        self._sorted_members: List[NodeId] = sorted(self.members)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self.members

    @property
    def size(self) -> int:
        """Number of member nodes."""
        return len(self.members)

    def add_member(self, node_id: NodeId) -> None:
        """Insert ``node_id``; error if it is already a member."""
        if node_id in self.members:
            raise ProtocolViolationError(
                f"node {node_id} is already a member of cluster {self.cluster_id}"
            )
        self.members.add(node_id)
        insort(self._sorted_members, node_id)

    def remove_member(self, node_id: NodeId) -> None:
        """Remove ``node_id``; error if it is not a member."""
        if node_id not in self.members:
            raise UnknownNodeError(
                f"node {node_id} is not a member of cluster {self.cluster_id}"
            )
        self.members.discard(node_id)
        self._sorted_members.remove(node_id)

    def swap_member(self, outgoing: NodeId, incoming: NodeId) -> None:
        """Atomically replace ``outgoing`` with ``incoming`` (an exchange step)."""
        if outgoing != incoming:
            self._check_swap(outgoing, incoming)
            self.remove_member(outgoing)
            self.add_member(incoming)

    def _check_swap(self, outgoing: NodeId, incoming: NodeId) -> None:
        if outgoing not in self.members:
            raise UnknownNodeError(
                f"node {outgoing} is not a member of cluster {self.cluster_id}"
            )
        if incoming in self.members:
            raise ProtocolViolationError(
                f"node {incoming} is already a member of cluster {self.cluster_id}"
            )

    def member_list(self) -> List[NodeId]:
        """Sorted members as a fresh list the caller may mutate."""
        return list(self.sorted_members())

    def sorted_members(self) -> List[NodeId]:
        """The sorted membership itself: a live view callers must not mutate.

        Note: a caller writing to ``cluster.members`` directly (the registry
        never does) bypasses its maintenance.
        """
        return self._sorted_members

    def snapshot(self) -> FrozenSet[NodeId]:
        """Immutable copy of the membership."""
        return frozenset(self.members)

    def snapshot_state(self) -> dict:
        """JSON-ready snapshot of the cluster (members in sorted order)."""
        return {
            "cluster_id": self.cluster_id,
            "members": self.member_list(),
            "created_at": self.created_at,
            "exchanges_performed": self.exchanges_performed,
            "last_full_exchange": self.last_full_exchange,
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "Cluster":
        """Rebuild a cluster from :meth:`snapshot_state` output."""
        cluster = cls(
            cluster_id=data["cluster_id"],
            members=set(data["members"]),
            created_at=data.get("created_at", 0),
        )
        cluster.exchanges_performed = data.get("exchanges_performed", 0)
        cluster.last_full_exchange = data.get("last_full_exchange")
        return cluster


class ClusterRegistry:
    """All live clusters, indexed by cluster id and by member node.

    Every membership mutation goes through the registry, so it can (a) keep an
    O(1)-samplable array of live cluster ids (swap-delete on dissolve) and
    (b) notify listeners — e.g. the corruption tracker in
    :mod:`repro.core.state` — so per-cluster statistics stay incremental
    instead of being recomputed by full sweeps.
    """

    def __init__(self) -> None:
        self._clusters: dict = {}
        self._node_to_cluster: dict = {}
        self._next_id: int = 0
        self._id_list: List[ClusterId] = []
        self._id_pos: dict = {}
        self._listeners: List[object] = []
        # Per-hook bound-method lists, resolved once per listener set; the
        # getattr resolution would otherwise run on every membership event.
        self._hook_cache: dict = {}
        #: Diagnostic: number of full sweeps over the cluster population
        #: (used by the throughput benchmark to verify O(1) accounting).
        self.full_scan_count: int = 0

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def add_listener(self, listener: object) -> None:
        """Register a membership listener.

        A listener may implement any of ``cluster_created(cluster)``,
        ``cluster_dissolved(cluster)``, ``member_added(cluster_id, node_id)``,
        ``member_removed(cluster_id, node_id)`` and
        ``members_swapped(cluster_id, swaps)``; missing hooks are skipped.
        ``members_swapped`` is the only event swaps emit (one per
        :meth:`exchange_round` or :meth:`swap_members`), so a listener following
        ``member_added`` / ``member_removed`` must define it and is refused
        otherwise.  One that follows only sizes, which swaps keep, defines
        ``members_swapped = None`` and receives nothing.
        """
        follows = hasattr(listener, "member_added") or hasattr(listener, "member_removed")
        if follows and not hasattr(listener, "members_swapped"):
            raise ConfigurationError(
                f"listener {type(listener).__name__} implements member_added / "
                "member_removed but does not define members_swapped; swaps emit "
                "only members_swapped, so it would miss them (define it as None "
                "to follow sizes only)"
            )
        self._listeners.append(listener)
        self._hook_cache.clear()

    def _hooks(self, hook: str) -> list:
        methods = self._hook_cache.get(hook)
        if methods is None:
            methods = [
                method
                for listener in self._listeners
                if (method := getattr(listener, hook, None)) is not None
            ]
            self._hook_cache[hook] = methods
        return methods

    def _notify(self, hook: str, *args) -> None:
        for method in self._hooks(hook):
            method(*args)

    # ------------------------------------------------------------------
    # Creation / removal
    # ------------------------------------------------------------------
    def new_cluster_id(self) -> ClusterId:
        """Allocate a fresh, never-reused cluster identifier."""
        allocated = self._next_id
        self._next_id += 1
        return allocated

    def create_cluster(
        self, members: Iterable[NodeId], created_at: int = 0, cluster_id: Optional[ClusterId] = None
    ) -> Cluster:
        """Create a cluster with the given members and register it."""
        if cluster_id is None:
            cluster_id = self.new_cluster_id()
        elif cluster_id in self._clusters:
            raise ProtocolViolationError(f"cluster id {cluster_id} is already in use")
        else:
            self._next_id = max(self._next_id, cluster_id + 1)
        cluster = Cluster(cluster_id=cluster_id, members=set(members), created_at=created_at)
        for node_id in cluster.members:
            if node_id in self._node_to_cluster:
                raise ProtocolViolationError(
                    f"node {node_id} already belongs to cluster "
                    f"{self._node_to_cluster[node_id]}"
                )
            self._node_to_cluster[node_id] = cluster_id
        self._clusters[cluster_id] = cluster
        self._id_pos[cluster_id] = len(self._id_list)
        self._id_list.append(cluster_id)
        self._notify("cluster_created", cluster)
        return cluster

    def dissolve_cluster(self, cluster_id: ClusterId) -> Cluster:
        """Remove a cluster from the registry (its members become unassigned)."""
        cluster = self.get(cluster_id)
        for node_id in cluster.members:
            self._node_to_cluster.pop(node_id, None)
        del self._clusters[cluster_id]
        index = self._id_pos.pop(cluster_id)
        last = self._id_list.pop()
        if last != cluster_id:
            self._id_list[index] = last
            self._id_pos[last] = index
        self._notify("cluster_dissolved", cluster)
        return cluster

    # ------------------------------------------------------------------
    # Membership updates (kept in sync with the node index)
    # ------------------------------------------------------------------
    def add_member(self, cluster_id: ClusterId, node_id: NodeId) -> None:
        """Add ``node_id`` to ``cluster_id`` (it must not belong to any cluster)."""
        if node_id in self._node_to_cluster:
            raise ProtocolViolationError(
                f"node {node_id} already belongs to cluster {self._node_to_cluster[node_id]}"
            )
        self.get(cluster_id).add_member(node_id)
        self._node_to_cluster[node_id] = cluster_id
        self._notify("member_added", cluster_id, node_id)

    def remove_member(self, cluster_id: ClusterId, node_id: NodeId) -> None:
        """Remove ``node_id`` from ``cluster_id``."""
        self.get(cluster_id).remove_member(node_id)
        self._node_to_cluster.pop(node_id, None)
        self._notify("member_removed", cluster_id, node_id)

    def move_member(self, node_id: NodeId, target_cluster_id: ClusterId) -> None:
        """Move ``node_id`` from its current cluster to ``target_cluster_id``."""
        source_id = self.cluster_of(node_id)
        if source_id == target_cluster_id:
            return
        self.get(source_id).remove_member(node_id)
        self.get(target_cluster_id).add_member(node_id)
        self._node_to_cluster[node_id] = target_cluster_id
        self._notify("member_removed", source_id, node_id)
        self._notify("member_added", target_cluster_id, node_id)

    def swap_members(
        self, first_cluster: ClusterId, first_node: NodeId, second_cluster: ClusterId, second_node: NodeId
    ) -> None:
        """Exchange ``first_node`` (of ``first_cluster``) with ``second_node`` (of ``second_cluster``).

        A one-swap :meth:`exchange_round`: the same checks, updates and
        event.  A swap within one cluster changes nothing and emits nothing.
        """
        self.exchange_round(
            first_cluster, [first_node], [0], [second_cluster], None, lambda _: second_node
        )

    def exchange_round(
        self,
        cluster_id: ClusterId,
        outgoing: List[NodeId],
        draws,
        vertices: Sequence[ClusterId],
        getrandbits: Optional[Callable[[int], int]],
        choose: Optional[Callable[[List[NodeId]], NodeId]] = None,
    ) -> Tuple[List[Tuple[NodeId, ClusterId, NodeId]], dict]:
        """Swap each ``outgoing`` member of ``cluster_id`` with a member of a drawn partner.

        One flat pass over ``outgoing``; each member draws one key and
        ``vertices[key]`` is its partner.  ``draws`` is a list of keys, one
        per member, or a ``(cum, total, last, random)`` table drawn lazily
        as :meth:`~repro.walks.csr.CSRLayout.row_sampler` draws, so a round
        refused part-way has drawn only up to the refusal.  A member whose
        partner is ``cluster_id`` itself or an empty cluster stays.
        Otherwise the partner gives up the member at an index into its
        sorted view: ``getrandbits(size.bit_length())`` redrawn until below
        the size, which is the draw ``randrange(size)`` makes, or, when
        ``getrandbits`` is ``None``, the member ``choose(view)`` names.

        The four membership checks run before either side of a swap
        changes, so a refused swap changes nothing.  No pick reads the
        exchanging cluster's own view (a self-draw stays); it is rebuilt
        once when the pass ends.  The applied ``(node, partner_id,
        replacement)`` triples go to listeners as one ``members_swapped``
        event, also when a swap was refused.  Returns them with the round's
        partner table: key -> ``[partner_id, members, view, size, bits,
        picks]``, or ``()`` where the member stayed.
        """
        cluster = self.get(cluster_id)
        members = cluster.members
        clusters, node_index = self._clusters, self._node_to_cluster
        partners: dict = {}
        applied: List[Tuple[NodeId, ClusterId, NodeId]] = []
        record = applied.append
        lazy = not isinstance(draws, list)
        if lazy:
            cum, total, last, random = draws
        else:
            next_key = iter(draws).__next__
        try:
            for node in outgoing:
                key = bisect_right(cum, random() * total, 0, last) if lazy else next_key()
                entry = partners.get(key)
                if entry is None:
                    partner_id = vertices[key]
                    partner = clusters.get(partner_id)
                    if partner is None:
                        self.get(partner_id)  # raises UnknownClusterError
                    view = partner._sorted_members
                    size, bits = len(view), len(view).bit_length()
                    stays = partner_id == cluster_id or not size
                    entry = partners[key] = (
                        () if stays else [partner_id, partner.members, view, size, bits, 0]
                    )
                if not entry:
                    continue
                partner_id, partner_members, partner_view, size, bits, _ = entry
                if getrandbits is not None:
                    index = getrandbits(bits)
                    while index >= size:
                        index = getrandbits(bits)
                    replacement = partner_view[index]
                else:
                    replacement = choose(partner_view)
                    index = bisect_left(partner_view, replacement)
                if (
                    node not in members
                    or replacement in members
                    or replacement not in partner_members
                    or node in partner_members
                ):
                    cluster._check_swap(node, replacement)  # raises the first refusal
                    self.get(partner_id)._check_swap(replacement, node)
                members.remove(node)
                members.add(replacement)
                partner_members.remove(replacement)
                partner_members.add(node)
                del partner_view[index]
                insort(partner_view, node)
                node_index[node] = partner_id
                node_index[replacement] = cluster_id
                record((node, partner_id, replacement))
                entry[5] += 1
        finally:
            cluster._sorted_members[:] = sorted(members)
            if applied:
                for method in self._hooks("members_swapped"):
                    method(cluster_id, applied)
        return applied, partners

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._clusters)

    def __contains__(self, cluster_id: ClusterId) -> bool:
        return cluster_id in self._clusters

    def get(self, cluster_id: ClusterId) -> Cluster:
        """Return the cluster with the given id (error if absent)."""
        cluster = self._clusters.get(cluster_id)
        if cluster is None:
            raise UnknownClusterError(f"cluster {cluster_id} does not exist")
        return cluster

    def cluster_of(self, node_id: NodeId) -> ClusterId:
        """Return the id of the cluster containing ``node_id``."""
        if node_id not in self._node_to_cluster:
            raise UnknownNodeError(f"node {node_id} is not assigned to any cluster")
        return self._node_to_cluster[node_id]

    def contains_node(self, node_id: NodeId) -> bool:
        """Whether ``node_id`` currently belongs to some cluster."""
        return node_id in self._node_to_cluster

    def clusters(self) -> Iterator[Cluster]:
        """Iterate over all live clusters."""
        self.full_scan_count += 1
        return iter(list(self._clusters.values()))

    def cluster_ids(self) -> List[ClusterId]:
        """Sorted list of live cluster ids."""
        self.full_scan_count += 1
        return sorted(self._clusters)

    def sample_id(self, rng) -> ClusterId:
        """A uniformly random live cluster id in O(1) (error when empty)."""
        if not self._id_list:
            raise UnknownClusterError("no live clusters to sample from")
        return self._id_list[rng.randrange(len(self._id_list))]

    def total_nodes(self) -> int:
        """Total number of nodes across all clusters."""
        return len(self._node_to_cluster)

    def sizes(self) -> dict:
        """Mapping cluster id -> size."""
        self.full_scan_count += 1
        return {cluster_id: len(cluster) for cluster_id, cluster in self._clusters.items()}

    # ------------------------------------------------------------------
    # Checkpoint serialisation (repro.trace)
    # ------------------------------------------------------------------
    def sampling_orders(self) -> dict:
        """The RNG-visible sampling state, cheaply: id-array order + next id.

        O(#clusters) — the per-index-frame state fingerprint reads this
        instead of the full :meth:`snapshot_state`.
        """
        return {"ids": list(self._id_list), "next_id": self._next_id}

    def snapshot_state(self) -> dict:
        """JSON-ready snapshot of every cluster plus the sampling-array order.

        ``id_list`` preserves the swap-delete array's exact order because
        :meth:`sample_id` indexes into it with an RNG draw — restoring the
        ids in any other order would change which cluster a given draw
        selects and break replay determinism.
        """
        return {
            "clusters": [self._clusters[cid].snapshot_state() for cid in self._id_list],
            "id_list": list(self._id_list),
            "next_id": self._next_id,
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "ClusterRegistry":
        """Rebuild a registry from :meth:`snapshot_state` output (no listeners)."""
        registry = cls()
        for cluster_data in data["clusters"]:
            cluster = Cluster.from_snapshot(cluster_data)
            registry._clusters[cluster.cluster_id] = cluster
            for node_id in cluster.members:
                registry._node_to_cluster[node_id] = cluster.cluster_id
        registry._id_list = list(data["id_list"])
        registry._id_pos = {cid: index for index, cid in enumerate(registry._id_list)}
        registry._next_id = int(data["next_id"])
        return registry
