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

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Collection, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence

from ..errors import ProtocolViolationError, UnknownClusterError, UnknownNodeError
from ..network.node import NodeId

ClusterId = int


@dataclass
class Cluster:
    """A cluster's member slots plus bookkeeping about its history.

    ``members`` is the slot list, and the member order of trace v3 is its
    order: a join appends a slot, a removal moves the last slot into the
    hole, and a swap writes a slot in place.  Random picks index into it,
    so the order is part of the state (see "Member order" in
    ``docs/ARCHITECTURE.md``).  :meth:`member_list` is the sorted copy for
    callers that want a set-like view.
    """

    cluster_id: ClusterId
    members: List[NodeId] = field(default_factory=list)
    created_at: int = 0
    exchanges_performed: int = 0
    last_full_exchange: Optional[int] = None

    def __post_init__(self) -> None:
        self.members = list(self.members)
        if len(set(self.members)) != len(self.members):
            raise ProtocolViolationError(f"cluster {self.cluster_id} lists a member twice")

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, node_id: NodeId) -> bool:
        # A scan: hot paths ask the registry's node index instead.
        return node_id in self.members

    @property
    def size(self) -> int:
        """Number of member nodes."""
        return len(self.members)

    def slot_of(self, node_id: NodeId) -> int:
        """The slot holding ``node_id``; error if it is not a member."""
        try:
            return self.members.index(node_id)
        except ValueError:
            raise UnknownNodeError(
                f"node {node_id} is not a member of cluster {self.cluster_id}"
            ) from None

    def add_member(self, node_id: NodeId) -> None:
        """Append ``node_id`` as the last slot; error if it is already a member."""
        if node_id in self.members:
            raise ProtocolViolationError(
                f"node {node_id} is already a member of cluster {self.cluster_id}"
            )
        self.members.append(node_id)

    def remove_member(self, node_id: NodeId) -> None:
        """Remove ``node_id``, moving the last slot into its hole; error if absent."""
        slot = self.slot_of(node_id)
        last = self.members.pop()
        if slot < len(self.members):
            self.members[slot] = last

    def swap_member(self, outgoing: NodeId, incoming: NodeId) -> None:
        """Write ``incoming`` into ``outgoing``'s slot (an exchange step)."""
        if outgoing != incoming:
            slot = self.slot_of(outgoing)
            if incoming in self.members:
                raise ProtocolViolationError(
                    f"node {incoming} is already a member of cluster {self.cluster_id}"
                )
            self.members[slot] = incoming

    def member_list(self) -> List[NodeId]:
        """Sorted members as a fresh list the caller may mutate."""
        return sorted(self.members)

    def snapshot(self) -> FrozenSet[NodeId]:
        """Immutable copy of the membership."""
        return frozenset(self.members)

    def snapshot_state(self) -> dict:
        """JSON-ready snapshot of the cluster (members in slot order)."""
        return {
            "cluster_id": self.cluster_id,
            "members": list(self.members),
            "created_at": self.created_at,
            "exchanges_performed": self.exchanges_performed,
            "last_full_exchange": self.last_full_exchange,
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "Cluster":
        """Rebuild a cluster from :meth:`snapshot_state` output."""
        cluster = cls(
            cluster_id=data["cluster_id"],
            members=data["members"],
            created_at=data.get("created_at", 0),
        )
        cluster.exchanges_performed = data.get("exchanges_performed", 0)
        cluster.last_full_exchange = data.get("last_full_exchange")
        return cluster


class ClusterRegistry:
    """All live clusters, indexed by cluster id and by member node.

    Every membership mutation goes through the registry, so it can (a) keep an
    O(1)-samplable array of live cluster ids (swap-delete on dissolve), (b)
    keep the node index, the only copy of membership besides the clusters'
    slots, and (c) notify listeners — e.g. the corruption tracker in
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
        # What swaps check and count (see bind_roles): until roles are bound
        # a node counts as registered when it is indexed, and none as Byzantine.
        self._registered: Collection[NodeId] = self._node_to_cluster
        self._byzantine: Collection[NodeId] = frozenset()
        self._on_moved: Optional[Callable[[dict], None]] = None
        #: Diagnostic: number of full sweeps over the cluster population
        #: (used by the throughput benchmark to verify O(1) accounting).
        self.full_scan_count: int = 0
        #: Diagnostic: exchange rounds run and swaps made by
        #: :meth:`exchange_pass` (read by the throughput benchmark's curve).
        self.exchange_round_count: int = 0
        self.swap_count: int = 0

    # ------------------------------------------------------------------
    # Listeners and roles
    # ------------------------------------------------------------------
    def add_listener(self, listener: object) -> None:
        """Register a membership listener.

        A listener may implement any of ``cluster_created(cluster)``,
        ``cluster_dissolved(cluster)``, ``member_added(cluster_id, node_id)``
        and ``member_removed(cluster_id, node_id)``; missing hooks are
        skipped.  Swaps keep every size and emit no event: their Byzantine
        moves go to the sink :meth:`bind_roles` names.
        """
        self._listeners.append(listener)
        self._hook_cache.clear()

    def bind_roles(
        self,
        registered: Mapping[NodeId, object],
        byzantine: Collection[NodeId],
        on_moved: Callable[[dict], None],
    ) -> None:
        """Name the nodes swaps may move and the Byzantine ones, both live views.

        A swap refuses a node outside ``registered``.  Each swap's Byzantine
        move is counted as it is made, and ``on_moved`` receives the moves
        once per :meth:`exchange_pass` or :meth:`swap_members`, as
        ``{cluster_id: change in its Byzantine count}``.
        """
        self._registered, self._byzantine, self._on_moved = registered, byzantine, on_moved

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
        """Create a cluster whose slots are ``members`` in their order, and register it."""
        if cluster_id is None:
            cluster_id = self.new_cluster_id()
        elif cluster_id in self._clusters:
            raise ProtocolViolationError(f"cluster id {cluster_id} is already in use")
        else:
            self._next_id = max(self._next_id, cluster_id + 1)
        cluster = Cluster(cluster_id=cluster_id, members=members, created_at=created_at)
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

    def _refuse_swap(
        self, cluster_id: ClusterId, node: NodeId, partner_id: ClusterId, replacement: NodeId
    ) -> None:
        """Raise the first check that swapping ``node`` for ``replacement`` fails, if any.

        Each node must be where the node index says and be registered.
        """
        for member, home, other in ((node, cluster_id, partner_id), (replacement, partner_id, cluster_id)):
            indexed = self._node_to_cluster.get(member)
            if indexed == other:
                raise ProtocolViolationError(f"node {member} is already a member of cluster {other}")
            if indexed != home:
                raise UnknownNodeError(f"node {member} is not a member of cluster {home}")
            if member not in self._registered:
                raise UnknownNodeError(f"node {member} is not a registered node")

    def swap_members(
        self, first_cluster: ClusterId, first_node: NodeId, second_cluster: ClusterId, second_node: NodeId
    ) -> None:
        """Exchange ``first_node`` (of ``first_cluster``) with ``second_node`` (of ``second_cluster``).

        One swap of an exchange round, with its checks, all made before
        either side changes: each node sits in its cluster's slots, where
        the node index says, and is registered.  Each node takes the
        other's slot.  A swap within one cluster changes nothing.
        """
        first, second = self.get(first_cluster), self.get(second_cluster)
        if first is second:
            return
        self._refuse_swap(first_cluster, first_node, second_cluster, second_node)
        first_slot, second_slot = first.slot_of(first_node), second.slot_of(second_node)
        first.members[first_slot], second.members[second_slot] = second_node, first_node
        self._node_to_cluster[first_node] = second_cluster
        self._node_to_cluster[second_node] = first_cluster
        byzantine = self._byzantine
        moved = (first_node in byzantine) - (second_node in byzantine)
        if moved and self._on_moved is not None:
            self._on_moved({first_cluster: -moved, second_cluster: moved})

    def exchange_pass(
        self,
        cluster_ids: Sequence[ClusterId],
        layout,
        getrandbits: Optional[Callable[[int], int]],
        walks: Optional[Sequence[int]] = None,
        choose: Optional[Callable[[List[NodeId]], NodeId]] = None,
    ) -> tuple:
        """Exchange each cluster of ``cluster_ids``, in order, as one pass.

        A cluster's round swaps each of its members, slot by slot, with a
        member of a drawn partner; partners are rows of the CSR ``layout``.
        With ``walks`` ``None`` (oracle walks) each member makes one draw
        ``u`` uniform over ``layout.population()``'s units with
        ``getrandbits`` (``getrandbits(total.bit_length())`` redrawn until
        below ``total``, the draw ``randrange(total)`` makes): the row
        ``bisect_right(cum, u)`` is its partner and the slot ``u -
        base[row]`` the member the partner gives up.  Otherwise (simulated
        walks) ``walks`` lists the rows the pass's walks ended on, one per
        member of each cluster in turn (the pass's walks are drawn before it
        starts, as one batch), and the partner gives up slot
        ``randrange(size)``, drawn the same way with ``getrandbits``.  With
        ``choose`` (an adversary override is installed) the partner gives up
        the member ``choose(slots)`` names instead; ``choose`` reads the live
        slots and must copy what it keeps.

        A member whose partner is its round's own cluster or an empty
        cluster stays.  Swaps keep every size, so the population and each
        partner's slots are fixed for the pass: a partner row is resolved
        once, at its first draw in the pass, and must be a live cluster
        whose slot count is its row's weight.  Each swap is checked as
        :meth:`swap_members` checks, before either side changes, so a
        refused swap changes nothing (the swaps before it stay made); it
        writes both slots and the node index in place and counts its
        Byzantine move.  The pass's moves go to the bound sink once, also
        when a swap was refused.

        Returns ``(swaps, pairs, rounds)``: the pass's swap count, the sum
        over its swaps of the partner's ordered member pairs ``s (s - 1)``,
        and per round the rows it swapped with, in first-swap order.
        """
        clusters, index = self._clusters, self._node_to_cluster
        indexed = index.get
        registered, byzantine = self._registered, self._byzantine
        vertices, row_of = layout.vertices, layout.row_of
        cum, bases, total = layout.population()
        bits = total.bit_length()
        resolved: dict = {}
        moved: dict = {}
        moved_get = moved.get
        rounds: list = []
        swaps = pairs = 0

        def resolve(row: int) -> tuple:
            """``(slots, base, cluster_id, pairs)`` of partner ``row``, checked once per pass."""
            partner_id = vertices[row]
            partner = clusters.get(partner_id)
            if partner is None:
                raise UnknownClusterError(f"cluster {partner_id} does not exist")
            slots, base = partner.members, bases[row]
            size = len(slots)
            if size != cum[row] - base:
                raise ProtocolViolationError(
                    f"cluster {partner_id} has {size} members but overlay weight {cum[row] - base}"
                )
            entry = resolved[row] = (slots, base, partner_id, size * (size - 1))
            return entry

        taken = 0
        try:
            for cluster_id in cluster_ids:
                slots, own = self.get(cluster_id).members, row_of(cluster_id)
                table: dict = {}
                table_get = table.get
                rounds.append(table.keys())
                partners = None
                if walks is not None:
                    partners, taken = walks[taken : taken + len(slots)], taken + len(slots)
                if partners is None and slots and not total:
                    raise ProtocolViolationError("an oracle draw needs a layout with positive weight")
                for slot, node in enumerate(slots):
                    if partners is None:
                        u = getrandbits(bits)
                        while u >= total:
                            u = getrandbits(bits)
                        row = bisect_right(cum, u)
                    else:
                        row = partners[slot]
                    if row == own:
                        continue
                    entry = table_get(row)
                    if entry is None:
                        entry = resolved.get(row) or resolve(row)
                        if not entry[0]:
                            continue
                        table[row] = entry
                    partner_slots, base, partner_id, partner_pairs = entry
                    if choose is not None:
                        pick = partner_slots.index(choose(partner_slots))
                    elif partners is None:
                        pick = u - base
                    else:
                        size = len(partner_slots)
                        partner_bits = size.bit_length()
                        pick = getrandbits(partner_bits)
                        while pick >= size:
                            pick = getrandbits(partner_bits)
                    replacement = partner_slots[pick]
                    if (
                        indexed(node) != cluster_id
                        or indexed(replacement) != partner_id
                        or node not in registered
                        or replacement not in registered
                    ):
                        self._refuse_swap(cluster_id, node, partner_id, replacement)
                    slots[slot], partner_slots[pick] = replacement, node
                    index[node], index[replacement] = partner_id, cluster_id
                    swaps += 1
                    pairs += partner_pairs
                    delta = (node in byzantine) - (replacement in byzantine)
                    if delta:
                        moved[partner_id] = moved_get(partner_id, 0) + delta
                        moved[cluster_id] = moved_get(cluster_id, 0) - delta
        finally:
            self.exchange_round_count += len(rounds)
            self.swap_count += swaps
            moved = {cluster_id: delta for cluster_id, delta in moved.items() if delta}
            if moved and self._on_moved is not None:
                self._on_moved(moved)
        return swaps, pairs, rounds

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
        """Rebuild a registry from :meth:`snapshot_state` output (no listeners, no roles)."""
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
