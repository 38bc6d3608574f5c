"""Global system state shared by the NOW maintenance machinery.

:class:`SystemState` bundles together everything a maintenance operation
needs to read or update:

* the :class:`NodeRegistry` (ground truth about every node — identity, honest
  or Byzantine, active or departed),
* the :class:`~repro.core.cluster.ClusterRegistry` (the partition),
* the :class:`~repro.overlay.over.OverOverlay` (the expander of clusters),
* the protocol parameters, the metrics registry and the RNG,
* the discrete time step counter.

The separation mirrors the paper's layering: protocols only see cluster
membership and overlay structure; the Byzantine ground truth is consulted
exclusively by measurement code (invariants, experiments) and by the
adversary.

Statistics are maintained *incrementally*: the node registry keeps
O(1)-samplable swap-delete arrays of the active (and active honest)
population, and a :class:`CorruptionTracker` listens to cluster membership
and role changes so per-cluster Byzantine counts, the compromised-cluster
set and the worst corruption fraction are updated per event instead of
recomputed by O(n) sweeps.  ``docs/ARCHITECTURE.md`` describes the listener
wiring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..errors import ConfigurationError, UnknownNodeError
from ..network.metrics import MetricsRegistry
from ..network.node import NodeDescriptor, NodeId, NodeRole, NodeState
from ..overlay.over import OverOverlay
from ..params import ProtocolParameters
from ..structures import LazyMaxTracker
from .cluster import ClusterId, ClusterRegistry


class NodeRegistry:
    """Ground-truth registry of every node that ever joined the system.

    Alongside the descriptor map, the registry maintains swap-delete arrays
    of the active and active-honest populations plus the active-Byzantine
    set, updated through a lifecycle listener attached to every descriptor.
    This makes ``active_count``, ``byzantine_fraction`` and uniform sampling
    (:meth:`sample_active`, :meth:`sample_active_honest`) O(1) per call, and
    it keeps working even when callers mutate ``descriptor.role`` or
    ``descriptor.state`` directly.
    """

    def __init__(self) -> None:
        self._descriptors: Dict[NodeId, NodeDescriptor] = {}
        self._next_id: int = 0
        # Incremental accounting: swap-delete arrays + positions.
        self._active_list: List[NodeId] = []
        self._active_pos: Dict[NodeId, int] = {}
        self._honest_list: List[NodeId] = []
        self._honest_pos: Dict[NodeId, int] = {}
        self._active_byz: Set[NodeId] = set()
        # Every node whose *role* is Byzantine, active or not — the backing
        # set of :meth:`is_byzantine`, kept in sync on registration and role
        # flips so the ground-truth predicate is one set lookup.
        self._byz_roles: Set[NodeId] = set()
        self._role_listeners: List[object] = []
        #: Diagnostic: number of full sweeps over the node population
        #: (used by the throughput benchmark to verify O(1) accounting).
        self.full_scan_count: int = 0

    # ------------------------------------------------------------------
    # Creation and lifecycle
    # ------------------------------------------------------------------
    def new_node_id(self) -> NodeId:
        """Allocate a fresh node identifier (identities are never reused)."""
        allocated = self._next_id
        self._next_id += 1
        return allocated

    def register(
        self,
        role: NodeRole = NodeRole.HONEST,
        joined_at: int = 0,
        node_id: Optional[NodeId] = None,
    ) -> NodeDescriptor:
        """Create and register a new node descriptor."""
        if node_id is None:
            node_id = self.new_node_id()
        else:
            if node_id in self._descriptors:
                raise UnknownNodeError(f"node id {node_id} is already registered")
            self._next_id = max(self._next_id, node_id + 1)
        descriptor = NodeDescriptor(node_id=node_id, role=role, joined_at=joined_at)
        self._descriptors[node_id] = descriptor
        descriptor.attach_lifecycle_listener(self._descriptor_changed)
        if descriptor.is_byzantine:
            self._byz_roles.add(node_id)
        if descriptor.is_active:
            self._index_activate(descriptor)
        return descriptor

    def mark_left(self, node_id: NodeId, time_step: int) -> NodeDescriptor:
        """Record that ``node_id`` left the network."""
        descriptor = self.get(node_id)
        descriptor.mark_left(time_step)
        return descriptor

    def reactivate(self, node_id: NodeId, time_step: int) -> NodeDescriptor:
        """Mark a previously departed node as active again (re-join)."""
        descriptor = self.get(node_id)
        descriptor.state = NodeState.ACTIVE
        descriptor.joined_at = time_step
        descriptor.left_at = None
        return descriptor

    # ------------------------------------------------------------------
    # Incremental index maintenance
    # ------------------------------------------------------------------
    def add_role_listener(self, listener) -> None:
        """Register ``listener(descriptor, old_role, new_role)`` for role flips."""
        self._role_listeners.append(listener)

    @staticmethod
    def _swap_delete(array: List[NodeId], positions: Dict[NodeId, int], node_id: NodeId) -> None:
        index = positions.pop(node_id)
        last = array.pop()
        if last != node_id:
            array[index] = last
            positions[last] = index

    def _index_activate(self, descriptor: NodeDescriptor) -> None:
        node_id = descriptor.node_id
        if node_id in self._active_pos:
            return
        self._active_pos[node_id] = len(self._active_list)
        self._active_list.append(node_id)
        if descriptor.is_byzantine:
            self._active_byz.add(node_id)
        else:
            self._honest_pos[node_id] = len(self._honest_list)
            self._honest_list.append(node_id)

    def _index_deactivate(self, descriptor: NodeDescriptor) -> None:
        node_id = descriptor.node_id
        if node_id not in self._active_pos:
            return
        self._swap_delete(self._active_list, self._active_pos, node_id)
        if node_id in self._active_byz:
            self._active_byz.discard(node_id)
        else:
            self._swap_delete(self._honest_list, self._honest_pos, node_id)

    def _descriptor_changed(self, descriptor: NodeDescriptor, name: str, old, new) -> None:
        if name == "state":
            was_active = old is NodeState.ACTIVE
            now_active = new is NodeState.ACTIVE
            if now_active and not was_active:
                self._index_activate(descriptor)
            elif was_active and not now_active:
                self._index_deactivate(descriptor)
        elif name == "role":
            node_id = descriptor.node_id
            if new is NodeRole.BYZANTINE:
                self._byz_roles.add(node_id)
            else:
                self._byz_roles.discard(node_id)
            if node_id in self._active_pos:
                if new is NodeRole.BYZANTINE:
                    self._swap_delete(self._honest_list, self._honest_pos, node_id)
                    self._active_byz.add(node_id)
                else:
                    self._active_byz.discard(node_id)
                    self._honest_pos[node_id] = len(self._honest_list)
                    self._honest_list.append(node_id)
            for listener in self._role_listeners:
                listener(descriptor, old, new)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._descriptors

    def __len__(self) -> int:
        return len(self._descriptors)

    def get(self, node_id: NodeId) -> NodeDescriptor:
        """Descriptor of ``node_id`` (error if unknown)."""
        descriptor = self._descriptors.get(node_id)
        if descriptor is None:
            raise UnknownNodeError(f"node {node_id} is not registered")
        return descriptor

    def is_byzantine(self, node_id: NodeId) -> bool:
        """Ground truth: whether the adversary controls ``node_id``.

        Role-based (a departed Byzantine node stays Byzantine), served from
        the registration/role-flip-maintained role set — one set lookup on
        the corruption tracker's hot path.
        """
        if node_id not in self._descriptors:
            raise UnknownNodeError(f"node {node_id} is not registered")
        return node_id in self._byz_roles

    def role_view(self) -> Tuple[Mapping[NodeId, NodeDescriptor], Set[NodeId]]:
        """What :meth:`is_byzantine` reads, live and read-only: registered nodes, Byzantine roles."""
        return self._descriptors, self._byz_roles

    def is_active(self, node_id: NodeId) -> bool:
        """Whether ``node_id`` is currently part of the network."""
        return self.get(node_id).is_active

    def active_nodes(self) -> List[NodeId]:
        """Sorted ids of all currently active nodes (an O(n log n) sweep)."""
        self.full_scan_count += 1
        return sorted(self._active_list)

    def active_byzantine(self) -> Set[NodeId]:
        """Ids of active adversary-controlled nodes (O(B) copy)."""
        return set(self._active_byz)

    def active_count(self) -> int:
        """Number of active nodes (O(1))."""
        return len(self._active_list)

    def byzantine_fraction(self) -> float:
        """Fraction of active nodes controlled by the adversary (O(1))."""
        if not self._active_list:
            return 0.0
        return len(self._active_byz) / len(self._active_list)

    def sample_active(self, rng: random.Random) -> NodeId:
        """A uniformly random active node in O(1) (error when none exist)."""
        if not self._active_list:
            raise ConfigurationError("no active nodes to choose from")
        return self._active_list[rng.randrange(len(self._active_list))]

    def sample_active_honest(self, rng: random.Random) -> NodeId:
        """A uniformly random active honest node in O(1) (error when none exist)."""
        if not self._honest_list:
            raise ConfigurationError("no active nodes to choose from")
        return self._honest_list[rng.randrange(len(self._honest_list))]

    def descriptors(self) -> Iterator[NodeDescriptor]:
        """Iterate over every registered descriptor (active or not)."""
        self.full_scan_count += 1
        return iter(list(self._descriptors.values()))

    # ------------------------------------------------------------------
    # Checkpoint serialisation (repro.trace)
    # ------------------------------------------------------------------
    def sampling_orders(self) -> Dict[str, object]:
        """The RNG-visible sampling state, cheaply: array orders + next id.

        O(active) — unlike :meth:`snapshot_state`, which serialises every
        descriptor ever registered.  This is what the trace subsystem's
        per-index-frame state fingerprint reads.
        """
        return {
            "active": list(self._active_list),
            "honest": list(self._honest_list),
            "next_id": self._next_id,
        }

    def snapshot_state(self) -> Dict[str, object]:
        """JSON-ready snapshot: descriptors plus the exact sampling-array order.

        ``active_list`` and ``honest_list`` are the swap-delete arrays behind
        :meth:`sample_active` / :meth:`sample_active_honest`; their order is
        RNG-visible (an ``rng.randrange`` indexes into them), so it is
        serialised verbatim rather than recomputed on restore.
        """
        return {
            "descriptors": [
                {
                    "node_id": descriptor.node_id,
                    "role": descriptor.role.value,
                    "state": descriptor.state.value,
                    "joined_at": descriptor.joined_at,
                    "left_at": descriptor.left_at,
                    "attributes": dict(descriptor.attributes),
                }
                for descriptor in self._descriptors.values()
            ],
            "next_id": self._next_id,
            "active_list": list(self._active_list),
            "honest_list": list(self._honest_list),
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, object]) -> "NodeRegistry":
        """Rebuild a registry from :meth:`snapshot_state` output (no role listeners)."""
        registry = cls()
        for entry in data["descriptors"]:
            descriptor = NodeDescriptor(
                node_id=entry["node_id"],
                role=NodeRole(entry["role"]),
                state=NodeState(entry["state"]),
                joined_at=entry.get("joined_at", 0),
                left_at=entry.get("left_at"),
                attributes=dict(entry.get("attributes", {})),
            )
            registry._descriptors[descriptor.node_id] = descriptor
            descriptor.attach_lifecycle_listener(registry._descriptor_changed)
            if descriptor.is_byzantine:
                registry._byz_roles.add(descriptor.node_id)
        registry._next_id = int(data["next_id"])
        registry._active_list = list(data["active_list"])
        registry._active_pos = {nid: i for i, nid in enumerate(registry._active_list)}
        registry._honest_list = list(data["honest_list"])
        registry._honest_pos = {nid: i for i, nid in enumerate(registry._honest_list)}
        registry._active_byz = {
            nid for nid in registry._active_list if nid in registry._byz_roles
        }
        return registry


class CorruptionTracker:
    """Incremental per-cluster corruption accounting.

    Subscribes to cluster membership events and node role flips, and binds
    itself as the registry's role source, so every swap's Byzantine move
    arrives as a per-cluster count change.  It maintains per-cluster
    Byzantine counts, the set of clusters at or above the alarm threshold
    and (via a lazy max-heap) the worst corruption fraction.  A change
    marks its cluster dirty; the dirty clusters are refreshed once, when a
    query next reads, so a cluster touched by many exchange rounds of one
    event is refreshed once, not once per round.
    """

    def __init__(
        self,
        nodes: NodeRegistry,
        clusters: ClusterRegistry,
        alarm_fraction: float,
    ) -> None:
        self._nodes = nodes
        self._clusters = clusters
        self._alarm = alarm_fraction
        self._byz_count: Dict[ClusterId, int] = {}
        self._fractions = LazyMaxTracker()
        self._compromised: Set[ClusterId] = set()
        self._dirty: Set[ClusterId] = set()
        clusters.add_listener(self)
        clusters.bind_roles(*nodes.role_view(), self.counts_moved)
        nodes.add_role_listener(self._role_changed)
        self.rebuild()

    # ------------------------------------------------------------------
    # Full recomputation (used at attach time and by parity tests)
    # ------------------------------------------------------------------
    def _count(self, cluster) -> int:
        # Raises UnknownNodeError for members missing from the registry —
        # placing an unregistered node is a bug, surfaced at mutation time.
        is_byzantine = self._nodes.is_byzantine
        return sum(1 for node_id in cluster.members if is_byzantine(node_id))

    def rebuild(self) -> None:
        """Recompute every counter from scratch (one O(n) sweep)."""
        self._byz_count.clear()
        self._fractions.clear()
        self._compromised.clear()
        self._dirty.clear()
        for cluster in self._clusters.clusters():
            self._byz_count[cluster.cluster_id] = self._count(cluster)
            self._refresh(cluster.cluster_id)

    # ------------------------------------------------------------------
    # Listener hooks
    # ------------------------------------------------------------------
    def cluster_created(self, cluster) -> None:
        self._byz_count[cluster.cluster_id] = self._count(cluster)
        self._refresh(cluster.cluster_id)

    def cluster_dissolved(self, cluster) -> None:
        self._byz_count.pop(cluster.cluster_id, None)
        self._fractions.discard(cluster.cluster_id)
        self._compromised.discard(cluster.cluster_id)
        self._dirty.discard(cluster.cluster_id)

    def member_added(self, cluster_id: ClusterId, node_id: NodeId) -> None:
        if self._nodes.is_byzantine(node_id):
            self._byz_count[cluster_id] = self._byz_count.get(cluster_id, 0) + 1
        self._dirty.add(cluster_id)

    def member_removed(self, cluster_id: ClusterId, node_id: NodeId) -> None:
        if self._nodes.is_byzantine(node_id):
            self._byz_count[cluster_id] = self._byz_count.get(cluster_id, 0) - 1
        self._dirty.add(cluster_id)

    def counts_moved(self, moved: Dict[ClusterId, int]) -> None:
        """Swaps moved Byzantine members: ``cluster_id -> change in its count``."""
        byz_count = self._byz_count
        for cluster_id, delta in moved.items():
            byz_count[cluster_id] = byz_count.get(cluster_id, 0) + delta
        self._dirty.update(moved)

    def _role_changed(self, descriptor: NodeDescriptor, old, new) -> None:
        node_id = descriptor.node_id
        if not self._clusters.contains_node(node_id):
            return
        cluster_id = self._clusters.cluster_of(node_id)
        delta = 1 if new is NodeRole.BYZANTINE else -1
        self._byz_count[cluster_id] = self._byz_count.get(cluster_id, 0) + delta
        self._dirty.add(cluster_id)

    # ------------------------------------------------------------------
    # Internal upkeep
    # ------------------------------------------------------------------
    def _refresh(self, cluster_id: ClusterId) -> None:
        size = len(self._clusters.get(cluster_id))
        count = self._byz_count.get(cluster_id, 0)
        fraction = count / size if size else 0.0
        self._fractions.set(cluster_id, fraction)
        if fraction >= self._alarm:
            self._compromised.add(cluster_id)
        else:
            self._compromised.discard(cluster_id)

    def _flush(self) -> None:
        """Refresh every dirty cluster."""
        if self._dirty:
            for cluster_id in self._dirty:
                self._refresh(cluster_id)
            self._dirty.clear()

    # ------------------------------------------------------------------
    # Queries (O(1) / O(#compromised) after refreshing the dirty clusters)
    # ------------------------------------------------------------------
    def counts(self) -> Dict[ClusterId, int]:
        """Byzantine members of every live cluster (a copy; kept current per event)."""
        return dict(self._byz_count)

    def fraction(self, cluster_id: ClusterId) -> float:
        """Current corruption fraction of a live cluster."""
        self._flush()
        return self._fractions[cluster_id]

    def fractions(self) -> Dict[ClusterId, float]:
        """Corruption fraction of every live cluster (O(#clusters) copy)."""
        self._flush()
        return dict(self._fractions.items())

    def worst_fraction(self) -> float:
        """Largest per-cluster corruption fraction (amortised O(1))."""
        self._flush()
        return self._fractions.max()

    def compromised(self, threshold: Optional[float] = None) -> List[ClusterId]:
        """Sorted clusters at or above ``threshold`` (default: the alarm line)."""
        self._flush()
        if threshold is None or threshold == self._alarm:
            return sorted(self._compromised)
        return sorted(
            cluster_id
            for cluster_id, fraction in self._fractions.items()
            if fraction >= threshold
        )


class _OverlayWeightSync:
    """Cluster-membership listener that mirrors sizes into overlay weights."""

    def __init__(self, state: "SystemState") -> None:
        self._state = state

    def member_added(self, cluster_id: ClusterId, node_id: NodeId) -> None:
        self._state.sync_overlay_weight(cluster_id)

    def member_removed(self, cluster_id: ClusterId, node_id: NodeId) -> None:
        self._state.sync_overlay_weight(cluster_id)


@dataclass
class SystemState:
    """Everything the NOW maintenance machinery operates on."""

    parameters: ProtocolParameters
    rng: random.Random
    nodes: NodeRegistry = field(default_factory=NodeRegistry)
    clusters: ClusterRegistry = field(default_factory=ClusterRegistry)
    overlay: Optional[OverOverlay] = None
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    time_step: int = 0

    def __post_init__(self) -> None:
        if self.overlay is None:
            self.overlay = OverOverlay(self.parameters, self.rng)
        self.corruption = CorruptionTracker(
            self.nodes, self.clusters, self.parameters.byzantine_alarm_fraction
        )
        # Keep overlay vertex weights (cluster sizes) in sync event-by-event,
        # so the walk machinery never needs a full resynchronisation sweep.
        self.clusters.add_listener(_OverlayWeightSync(self))

    # ------------------------------------------------------------------
    # Size and corruption
    # ------------------------------------------------------------------
    @property
    def network_size(self) -> int:
        """Current number of nodes in the partition."""
        return self.clusters.total_nodes()

    def cluster_byzantine_fraction(self, cluster_id: ClusterId) -> float:
        """Ground-truth fraction of adversary-controlled members of a cluster."""
        self.clusters.get(cluster_id)  # raises UnknownClusterError when absent
        return self.corruption.fraction(cluster_id)

    def byzantine_fractions(self) -> Dict[ClusterId, float]:
        """Per-cluster corruption fractions, keyed by cluster id."""
        return self.corruption.fractions()

    def worst_cluster_fraction(self) -> float:
        """Largest per-cluster Byzantine fraction (0 when there are no clusters)."""
        return self.corruption.worst_fraction()

    def compromised_clusters(self, threshold: Optional[float] = None) -> List[ClusterId]:
        """Clusters whose corruption fraction reaches ``threshold`` (default one third)."""
        return self.corruption.compromised(threshold)

    # ------------------------------------------------------------------
    # Overlay synchronisation
    # ------------------------------------------------------------------
    def sync_overlay_weight(self, cluster_id: ClusterId) -> None:
        """Propagate a cluster's current size to its overlay vertex weight."""
        if cluster_id in self.overlay.graph:
            self.overlay.update_weight(cluster_id, float(len(self.clusters.get(cluster_id))))

    def sync_all_overlay_weights(self) -> None:
        """Propagate every cluster size to the overlay weights."""
        for cluster in self.clusters.clusters():
            self.sync_overlay_weight(cluster.cluster_id)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def advance_time(self) -> int:
        """Advance and return the discrete time-step counter."""
        self.time_step += 1
        return self.time_step

    # ------------------------------------------------------------------
    # Checkpoint serialisation (repro.trace)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """JSON-ready snapshot of the full system state.

        Captures everything a restored engine needs to continue the run
        bit-identically: parameters, the engine RNG stream, both registries
        (including their RNG-visible array orders), the overlay graph with
        its version counter, the metrics ledgers and the time step.  The
        corruption tracker and overlay-weight sync are *not* serialised —
        they are derived listeners, rebuilt by ``__post_init__`` on restore.
        """
        from dataclasses import asdict

        from ..rng import rng_state_to_json

        return {
            "parameters": asdict(self.parameters),
            "rng": rng_state_to_json(self.rng.getstate()),
            "nodes": self.nodes.snapshot_state(),
            "clusters": self.clusters.snapshot_state(),
            "overlay": self.overlay.graph.snapshot_state(),
            "metrics": self.metrics.snapshot(),
            "time_step": self.time_step,
        }

    @classmethod
    def restore_state(cls, data: Dict[str, object]) -> "SystemState":
        """Rebuild a system state from :meth:`snapshot_state` output."""
        from ..overlay.graph import OverlayGraph
        from ..rng import restore_rng

        parameters = ProtocolParameters(**data["parameters"])
        rng = restore_rng(data["rng"])
        overlay = OverOverlay(
            parameters, rng, graph=OverlayGraph.from_snapshot(data["overlay"])
        )
        return cls(
            parameters=parameters,
            rng=rng,
            nodes=NodeRegistry.from_snapshot(data["nodes"]),
            clusters=ClusterRegistry.from_snapshot(data["clusters"]),
            overlay=overlay,
            metrics=MetricsRegistry.from_snapshot(data["metrics"]),
            time_step=int(data["time_step"]),
        )
