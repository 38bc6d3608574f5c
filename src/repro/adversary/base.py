"""The event-source contract: one context, one base.

An event source emits at most one churn event per time step (the model
allows one join or leave per step).  Every source — a churn workload
(:mod:`repro.workloads.churn`), an adversary, or a mix of them
(:class:`~repro.workloads.traces.MixedDriver`) — is an
:class:`EventSource` whose ``next_event(context)`` reads one
:class:`AdversaryContext`: its driver's node registry and parameters and,
for a source that :attr:`~EventSource.reads_clusters`, its read model (the
views ``serve`` reads, :class:`~repro.shard.serve.ShardReadModel`).  The
context is one window onto the system on either driver, with no mutation
beyond the events the source returns; a workload is an oblivious source,
an adversary a full-knowledge one.  On shards a cluster goes by its
composite name (:func:`~repro.shard.messages.cluster_name`), and a source
that reads cluster interiors gets one-event windows, so each of its draws
sees a fresh view.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, List, Optional, Set

from ..core.cluster import ClusterId
from ..core.events import ChurnEvent
from ..errors import ConfigurationError, UnknownNodeError
from ..network.node import NodeId
from ..rng import rng_state_from_json, rng_state_to_json


class AdversaryContext:
    """Read-only, full-knowledge view of the system offered to an event source.

    Reads over ``model``, the driver's read model — fetched at most once
    per event, and only when a read needs it; ``None`` for a source that
    reads the registry only — ``nodes``, the driver's node registry, and
    ``params``, its protocol parameters.
    """

    def __init__(self, model, nodes, params) -> None:
        self._model = model
        self._nodes = nodes
        #: The protocol parameters the driver runs under.
        self.params = params

    def has_cluster(self, cluster_id: ClusterId) -> bool:
        """Whether a cluster of that name is live."""
        return cluster_id in self._model.view_of(cluster_id).clusters

    def cluster_ids(self) -> List[ClusterId]:
        """All live cluster names, ascending."""
        return sorted(name for view in self._model.ensure() for name in view.clusters)

    def cluster_members(self, cluster_id: ClusterId) -> List[NodeId]:
        """Members of a cluster, ascending (the adversary sees everything)."""
        return list(self._model.view_of(cluster_id).members(cluster_id))

    def cluster_of(self, node_id: NodeId) -> ClusterId:
        """The cluster currently hosting ``node_id`` (a scan of the views)."""
        clusters = (item for view in self._model.ensure() for item in view.clusters.items())
        found = next((name for name, members in clusters if node_id in members), None)
        if found is None:
            raise UnknownNodeError(f"node {node_id} is not assigned to any cluster")
        return found

    def byzantine_fraction(self, cluster_id: ClusterId) -> float:
        """Corruption fraction of a cluster."""
        view = self._model.view_of(cluster_id)
        return view.byzantine[cluster_id] / view.sizes[cluster_id]

    def byzantine_fractions(self) -> Dict[ClusterId, float]:
        """Corruption fraction of every cluster."""
        views = self._model.ensure()
        return {name: view.byzantine[name] / size for view in views for name, size in view.sizes.items()}

    def controlled_nodes(self) -> Set[NodeId]:
        """Active nodes the adversary controls."""
        return self._nodes.active_byzantine()

    def honest_nodes(self) -> List[NodeId]:
        """Active honest nodes (targets for forced departures)."""
        byzantine = self.controlled_nodes()
        return [node_id for node_id in self._nodes.active_nodes() if node_id not in byzantine]

    def controlled_in_cluster(self, cluster_id: ClusterId) -> List[NodeId]:
        """Adversary-controlled members of a specific cluster."""
        byzantine = self.controlled_nodes()
        return [node_id for node_id in self.cluster_members(cluster_id) if node_id in byzantine]

    def network_size(self) -> int:
        """Current system size."""
        return self._nodes.active_count()

    def sample_active(self, rng: random.Random) -> NodeId:
        """A uniform active node, drawn from the caller's ``rng``.

        The draw consumes the *source's* stream, never the engine's: the
        engine stream advances only inside ``apply_event``, so a recorded
        event sequence replays bit-identically (``repro.trace``).
        """
        return self._nodes.sample_active(rng)

    def global_byzantine_fraction(self) -> float:
        """Fraction of all active nodes the adversary controls."""
        return self._nodes.byzantine_fraction()


class EventSource(abc.ABC):
    """Base class of every event source: its RNG stream, its checkpoint
    snapshot and the per-step :meth:`next_event` over an :class:`AdversaryContext`."""

    #: Whether :meth:`next_event` reads cluster interiors (members, the
    #: clusters' corruption), so needs a fresh view before each event.
    reads_clusters = False
    #: The snapshot key holding :meth:`_snapshot_extra`.
    _extra_key = "extra"

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    @abc.abstractmethod
    def next_event(self, context: AdversaryContext) -> Optional[ChurnEvent]:
        """Return the churn event for this time step (``None`` to stay idle)."""

    # ------------------------------------------------------------------
    # Checkpoint serialisation (repro.trace)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """JSON-ready snapshot of the source's RNG stream and mutable state."""
        return {
            "kind": type(self).__name__,
            "rng": rng_state_to_json(self._rng.getstate()),
            self._extra_key: self._snapshot_extra(),
        }

    def restore_state(self, data: dict) -> None:
        """Restore a snapshot onto a source built with the same spec."""
        if data.get("kind") != type(self).__name__:
            raise ConfigurationError(
                f"snapshot is for {data.get('kind')!r}, not {type(self).__name__!r}"
            )
        self._rng.setstate(rng_state_from_json(data["rng"]))
        self._restore_extra(data.get(self._extra_key, {}))

    def _snapshot_extra(self):
        """Subclass hook: mutable fields beyond the RNG (default: none)."""
        return {}

    def _restore_extra(self, extra) -> None:
        """Subclass hook: inverse of :meth:`_snapshot_extra`."""

    def run(self, engine, steps: int) -> List:
        """Drive ``engine`` for ``steps`` time steps and return the reports."""
        from ..workloads.traces import drive  # local import: avoids a cycle

        return drive(engine, self, steps)


class Adversary(EventSource):
    """Base class of churn-driving adversaries: full-knowledge sources."""

    reads_clusters = True

    def name(self) -> str:
        """Human-readable adversary name (used in experiment tables)."""
        return type(self).__name__
