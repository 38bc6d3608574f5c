"""Deterministic event routing: global identities, ownership, sampling.

The router is the single-threaded heart of the sharded execution model.  It
owns the one piece of state every shard must agree on — *which global node
lives where* — and it makes every placement decision with **no randomness**
beyond the scenario's own RNG streams:

* fresh joins go to the least-loaded shard (ties broken by lowest shard
  index), so the placement is a pure function of the routed event history;
* a join naming a contact cluster goes to that cluster's shard: a cluster's
  composite name (:func:`~repro.shard.messages.cluster_name`) carries it;
* leaves go to the shard that owns the departing node;
* re-joins of previously departed nodes (the oblivious adversary's churn)
  are fresh placements: the node keeps its global identity and role but may
  land on a different shard.

The directory reuses :class:`~repro.core.state.NodeRegistry` over *global*
node ids, which buys the O(1) swap-delete sampling arrays and the exact
RNG-visible ordering semantics of the single-engine path for free — the
source's ``sample_active`` draws inside a sharded run consume its stream
exactly like a classic run would, indexing the directory's arrays.  Those
array orders are part of the composite state fingerprint
(:meth:`ShardDirectory.fingerprint`) for the same reason they are part of
the classic one: a uniform draw indexes into them.
"""

from __future__ import annotations

import heapq
import struct
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Set, Tuple

from ..core.events import ChurnKind
from ..core.state import NodeRegistry
from ..errors import ConfigurationError
from ..network.node import NodeRole
from .messages import (
    EVENT_FIELDS,
    EVENT_RECORD,
    JOIN,
    KIND_CODES,
    LEAVE,
    ROLE_CODES,
    EventBatch,
    RoutedEvent,
    cluster_address,
    range_error,
)

if TYPE_CHECKING:
    from ..scenarios.runner import EventPull


def slice_sizes(initial_size: int, shards: int) -> List[int]:
    """Initial population slice per shard: as even as integers allow.

    The first ``initial_size % shards`` shards take one extra node, so the
    assignment is deterministic and independent of everything but the two
    arguments.
    """
    if shards < 1:
        raise ConfigurationError("shards must be >= 1")
    if initial_size < shards:
        raise ConfigurationError(
            f"initial_size {initial_size} cannot populate {shards} shard(s)"
        )
    base, extra = divmod(initial_size, shards)
    return [base + (1 if shard < extra else 0) for shard in range(shards)]


def plan_rebalance(
    sizes: List[int], threshold: int, floor: int
) -> Optional[Tuple[int, int, int]]:
    """One rebalance move for the current shard sizes, or ``None``.

    Evaluated at every barrier.  The donor is the largest shard, the
    recipient the smallest (ties: lowest index).  A move happens when the
    spread exceeds ``threshold`` (move half the gap) or the smallest shard
    fell below ``floor`` (pull it back up to the floor — the guard that
    keeps a draining shard from losing its last cluster).  The donor is
    never drained below ``floor`` itself.  One move per barrier: multi-shard
    imbalances converge over consecutive barriers, and the single-move rule
    keeps the handoff schedule trivially deterministic.
    """
    if len(sizes) < 2:
        return None
    src = max(range(len(sizes)), key=lambda shard: (sizes[shard], -shard))
    dst = min(range(len(sizes)), key=lambda shard: (sizes[shard], shard))
    if src == dst:
        return None
    gap = sizes[src] - sizes[dst]
    count = gap // 2 if gap > threshold else 0
    count = max(count, floor - sizes[dst])
    count = min(count, sizes[src] - floor)
    if count <= 0:
        return None
    return (src, dst, count)


class ShardDirectory:
    """Global node directory: identity allocation, roles, liveness, ownership.

    The coordinator mutates it synchronously while routing (so the event
    source always samples the exact post-event population) and at barriers
    when handoffs move ownership.  Shard sizes are tracked incrementally;
    they always equal each shard engine's ``network_size`` at barrier
    boundaries (asserted by the worker protocol's summaries).
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigurationError("shards must be >= 1")
        self.num_shards = num_shards
        self.nodes = NodeRegistry()
        self.owner: Dict[int, int] = {}
        self.sizes: List[int] = [0] * num_shards
        # Per-shard member sets mirror ``owner`` (owner[gid] == s ⇔ gid in
        # members[s]); they exist so barrier planning can pick a shard's
        # largest gids without a worker round trip or an O(population) scan
        # of the owner map.
        self.members: List[Set[int]] = [set() for _ in range(num_shards)]

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def register_initial(self, shard: int, node_id: int, role: NodeRole) -> None:
        """Register one bootstrap-population node with its fixed global id."""
        self.nodes.register(role=role, joined_at=0, node_id=node_id)
        self.owner[node_id] = shard
        self.sizes[shard] += 1
        self.members[shard].add(node_id)

    def place_join(
        self, node_id: Optional[int], role: NodeRole, time_step: int, shard: Optional[int] = None
    ) -> Tuple[int, int, NodeRole, bool]:
        """Place a join: allocate/reactivate the identity, pick the shard.

        Returns ``(shard, global_id, role, fresh)``.  The shard is the given
        one (a join's contact cluster lives there), else the least-loaded
        one (lowest index on ties).  ``fresh`` is False for the
        re-join of a known identity, which keeps its descriptor *and its
        registered role* — whatever role the event names, as ``NowEngine``
        does — but is placed like a newcomer.  ``role`` is the role to
        route: the registered one.  A join naming an active node is refused.
        """
        if node_id in self.owner:
            raise ConfigurationError(f"join event names node {node_id}, which is already active")
        nodes = self.nodes
        fresh = node_id is None or node_id not in nodes
        if fresh:
            node_id = nodes.register(role=role, joined_at=time_step, node_id=node_id).node_id
        else:
            role = nodes.reactivate(node_id, time_step).role
        sizes = self.sizes
        if shard is None:
            shard = sizes.index(min(sizes))
        self.owner[node_id] = shard
        self.sizes[shard] += 1
        self.members[shard].add(node_id)
        return shard, node_id, role, fresh

    def remove_leave(self, node_id: int, time_step: int) -> int:
        """Record a departure and return the shard that owned the node."""
        shard = self.owner.pop(node_id, None)
        if shard is None:
            raise ConfigurationError(
                f"leave event names node {node_id}, which no shard owns"
            )
        self.nodes.mark_left(node_id, time_step)
        self.sizes[shard] -= 1
        self.members[shard].discard(node_id)
        return shard

    def move(self, node_id: int, dst: int) -> None:
        """Transfer ownership of an active node (a barrier handoff)."""
        src = self.owner.get(node_id)
        if src is None:
            raise ConfigurationError(f"cannot hand off unowned node {node_id}")
        self.owner[node_id] = dst
        self.sizes[src] -= 1
        self.sizes[dst] += 1
        self.members[src].discard(node_id)
        self.members[dst].add(node_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def active_count(self) -> int:
        """Composite network size (O(1))."""
        return self.nodes.active_count()

    def emigrants(self, shard: int, count: int) -> List[Tuple[int, str]]:
        """The ``count`` nodes a donor shard hands off, largest gid first.

        Returns ``(global_id, role)`` pairs in the exact order both workers
        apply them — the donor's departures, then the recipient's joins — a
        pure function of the directory, so the coordinator can plan a whole
        barrier (and dispatch the next window) without waiting on the donor
        worker.  The shard engine's active population *is*
        ``members[shard]`` at a barrier boundary, and the roles are the
        registered ones, so a Byzantine node stays Byzantine on its new shard.
        """
        population = self.members[shard]
        if count > len(population):
            raise ConfigurationError(
                f"shard {shard} cannot emigrate {count} of {len(population)} nodes"
            )
        gids = heapq.nlargest(count, population)
        is_byzantine = self.nodes.is_byzantine
        byzantine = NodeRole.BYZANTINE.value
        honest = NodeRole.HONEST.value
        return [(gid, byzantine if is_byzantine(gid) else honest) for gid in gids]

    # ------------------------------------------------------------------
    # Fingerprinting and checkpoint serialisation
    # ------------------------------------------------------------------
    def fingerprint(self) -> Dict[str, Any]:
        """Canonical view of the router state that shapes future behaviour.

        Folded into the composite state hash next to the per-shard engine
        hashes: the sampling-array orders are RNG-visible (the workload's
        draws index into them), and ownership determines where every future
        event lands.
        """
        orders = self.nodes.sampling_orders()
        return {
            "active_order": orders["active"],
            "honest_order": orders["honest"],
            "next_node_id": orders["next_id"],
            "byzantine": sorted(self.nodes.active_byzantine()),
            "owner": sorted(self.owner.items()),
            "sizes": list(self.sizes),
        }

    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-ready full snapshot (checkpoint payload)."""
        return {
            "num_shards": self.num_shards,
            "nodes": self.nodes.snapshot_state(),
            "owner": sorted(self.owner.items()),
            "sizes": list(self.sizes),
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "ShardDirectory":
        """Rebuild a directory from :meth:`snapshot_state` output."""
        directory = cls(int(data["num_shards"]))
        directory.nodes = NodeRegistry.from_snapshot(data["nodes"])
        directory.owner = {int(node_id): int(shard) for node_id, shard in data["owner"]}
        directory.sizes = [int(size) for size in data["sizes"]]
        for node_id, shard in directory.owner.items():
            directory.members[shard].add(node_id)
        return directory


class WindowBatch(NamedTuple):
    """One routed barrier window, ready for dispatch."""

    routed: List[RoutedEvent]
    batches: Dict[int, EventBatch]


class EventRouter:
    """Splits the scenario's event stream by owning shard, deterministically."""

    def __init__(self, directory: ShardDirectory) -> None:
        self.directory = directory

    def route_window(self, pull: EventPull, limit: int) -> WindowBatch:
        """Pull and route up to ``limit`` events of ``pull`` in one pass, packing batches.

        The event pull and the routing must stay interleaved — the source
        samples the live composite population, so each pull sees the exact
        post-event directory — which is why this takes the
        :class:`~repro.scenarios.runner.EventPull` (it holds the step
        numbering and the idle rule) rather than a pre-pulled list.  Every
        placement goes through the directory's
        :meth:`~ShardDirectory.place_join` /
        :meth:`~ShardDirectory.remove_leave`, the one copy of the placement
        rules; a join is routed with the role the directory returns, to its
        contact cluster's shard when it names one (by the composite name,
        :func:`~repro.shard.messages.cluster_address`).  Each
        shard's batch lands directly in a packed wire buffer
        (:data:`~repro.shard.messages.EVENT_RECORD`; a value beyond a packed
        field's range raises :class:`~repro.shard.messages.WireRangeError`).
        """
        directory = self.directory
        place_join = directory.place_join
        remove_leave = directory.remove_leave
        active_count = directory.nodes.active_count
        pack = EVENT_RECORD.pack
        role_codes = ROLE_CODES
        join_code = KIND_CODES[JOIN]
        leave_code = KIND_CODES[LEAVE]
        shards = directory.num_shards

        routed: List[RoutedEvent] = []
        buffers: Dict[int, bytearray] = {}

        for step, event in pull:
            contact = event.contact_cluster
            if event.kind is ChurnKind.JOIN:
                shard, local = (None, -1) if contact is None else cluster_address(contact, shards)
                shard, node_id, role, fresh = place_join(event.node_id, event.role, step, shard)
                kind, kind_code = JOIN, join_code
            else:
                node_id = event.node_id
                if node_id is None:
                    raise ConfigurationError(
                        "a leave event must name the departing node"
                    )
                shard = remove_leave(node_id, step)
                role, fresh, contact, local = event.role, False, None, -1
                kind, kind_code = LEAVE, leave_code
            role_value = role.value
            routed.append(
                RoutedEvent(
                    shard, step, kind, node_id, role_value, fresh, active_count(), contact
                )
            )
            buffer = buffers.get(shard)
            if buffer is None:
                buffer = buffers[shard] = bytearray()
            values = (step, kind_code, node_id, role_codes[role_value], fresh, local)
            try:
                buffer.extend(pack(*values))
            except struct.error:
                raise range_error(EVENT_RECORD, EVENT_FIELDS, values) from None
            if len(routed) == limit:
                break

        batches: Dict[int, EventBatch] = {
            shard: bytes(buffer) for shard, buffer in buffers.items()
        }
        return WindowBatch(routed=routed, batches=batches)
