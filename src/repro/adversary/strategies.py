"""Concrete adversary strategies.

These implement the attacks the paper's maintenance phase is designed to
withstand (Section 3.3) plus one it is explicitly *not* designed to resist,
used as a negative control:

* :class:`JoinLeaveAttack` — "the adversary chooses a specific cluster and
  keeps adding and removing the Byzantine nodes until they fall into that
  cluster".  Each step, a controlled node that is not in the target cluster
  leaves and immediately re-joins (one leave or one join per time step, as
  the model requires), always contacting the target cluster.  Against NOW the
  contact point does not matter (the host cluster is drawn by ``randCl`` and
  then shuffled); against the ``no_shuffle`` rule it captures the target.
* :class:`TargetedDosAdversary` — forces honest nodes of a chosen cluster to
  leave (churn by DoS), trying to raise the cluster's Byzantine fraction by
  shrinking its honest part.
* :class:`ObliviousChurnAdversary` — corrupted nodes churn randomly; the
  background noise model.
* :class:`AdaptiveCorruptionAdversary` — corrupts nodes *after* seeing the
  clustering (adaptive adversary).  The paper's guarantees exclude this
  adversary; the experiment using it shows the guarantees failing, which
  locates the model boundary.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..core.cluster import ClusterId
from ..core.events import ChurnEvent
from ..network.node import NodeId, NodeRole
from .base import Adversary, AdversaryContext


def _most_corrupted(fractions) -> ClusterId:
    """Cluster with the highest corruption fraction, smallest id on ties.

    The fractions mapping is in insertion order, which depends on the full
    run history; a deterministic tie-break keeps adversary decisions
    reproducible across checkpoint/restore (see ``repro.trace``).
    """
    return max(sorted(fractions), key=fractions.get)


class JoinLeaveAttack(Adversary):
    """Join–leave attack focused on one target cluster."""

    def __init__(self, rng: random.Random, target_cluster: Optional[ClusterId] = None) -> None:
        super().__init__(rng)
        self._target = target_cluster
        self._pending_rejoin: List[NodeId] = []

    def target_cluster(self, context: AdversaryContext) -> ClusterId:
        """The attacked cluster (fixed at first use; falls back if it disappears)."""
        if self._target is None or not context.has_cluster(self._target):
            cluster_ids = context.cluster_ids()
            self._target = cluster_ids[self._rng.randrange(len(cluster_ids))]
        return self._target

    def next_event(self, context: AdversaryContext) -> Optional[ChurnEvent]:
        target = self.target_cluster(context)
        # First, re-insert any controlled node that previously left, aiming at the target.
        if self._pending_rejoin:
            node_id = self._pending_rejoin.pop(0)
            return ChurnEvent.join(
                role=NodeRole.BYZANTINE, node_id=node_id, contact_cluster=target
            )
        # Otherwise, pull a controlled node that is not currently in the target out.
        inside = set(context.cluster_members(target))
        outside_target = sorted(context.controlled_nodes() - inside)
        if not outside_target:
            return None
        victim = outside_target[self._rng.randrange(len(outside_target))]
        self._pending_rejoin.append(victim)
        return ChurnEvent.leave(victim)

    def _snapshot_extra(self) -> dict:
        return {"target": self._target, "pending_rejoin": list(self._pending_rejoin)}

    def _restore_extra(self, extra: dict) -> None:
        self._target = extra.get("target")
        self._pending_rejoin = list(extra.get("pending_rejoin", []))


class TargetedDosAdversary(Adversary):
    """Forces honest members of a target cluster to leave the network."""

    def __init__(
        self,
        rng: random.Random,
        target_cluster: Optional[ClusterId] = None,
        rejoin_victims: bool = True,
    ) -> None:
        super().__init__(rng)
        self._target = target_cluster
        self._rejoin_victims = rejoin_victims
        self._pending_rejoin: List[NodeId] = []

    def target_cluster(self, context: AdversaryContext) -> ClusterId:
        """The attacked cluster (defaults to the currently most corrupted one)."""
        if self._target is None or not context.has_cluster(self._target):
            self._target = _most_corrupted(context.byzantine_fractions())
        return self._target

    def next_event(self, context: AdversaryContext) -> Optional[ChurnEvent]:
        # Re-insert previously DoS'd honest nodes elsewhere to keep n roughly stable
        # (the paper's churn keeps the size within its admissible range).
        if self._rejoin_victims and self._pending_rejoin and self._rng.random() < 0.5:
            node_id = self._pending_rejoin.pop(0)
            return ChurnEvent.join(role=NodeRole.HONEST, node_id=node_id)
        target = self.target_cluster(context)
        members = context.cluster_members(target)
        controlled = context.controlled_nodes()
        honest_members = [node_id for node_id in members if node_id not in controlled]
        if not honest_members:
            return None
        victim = honest_members[self._rng.randrange(len(honest_members))]
        if self._rejoin_victims:
            self._pending_rejoin.append(victim)
        return ChurnEvent.leave(victim)

    def _snapshot_extra(self) -> dict:
        return {"target": self._target, "pending_rejoin": list(self._pending_rejoin)}

    def _restore_extra(self, extra: dict) -> None:
        self._target = extra.get("target")
        self._pending_rejoin = list(extra.get("pending_rejoin", []))


class ObliviousChurnAdversary(Adversary):
    """Controlled nodes churn at random — background adversarial noise."""

    #: It reads the registry only, never a view.
    reads_clusters = False

    def __init__(self, rng: random.Random, join_probability: float = 0.5) -> None:
        super().__init__(rng)
        if not 0.0 <= join_probability <= 1.0:
            raise ValueError("join_probability must lie in [0, 1]")
        self._join_probability = join_probability
        self._departed: List[NodeId] = []

    def next_event(self, context: AdversaryContext) -> Optional[ChurnEvent]:
        if self._departed and self._rng.random() < self._join_probability:
            node_id = self._departed.pop(self._rng.randrange(len(self._departed)))
            return ChurnEvent.join(role=NodeRole.BYZANTINE, node_id=node_id)
        controlled = sorted(context.controlled_nodes())
        if not controlled:
            return None
        victim = controlled[self._rng.randrange(len(controlled))]
        self._departed.append(victim)
        return ChurnEvent.leave(victim)

    def _snapshot_extra(self) -> dict:
        return {"departed": list(self._departed)}

    def _restore_extra(self, extra: dict) -> None:
        self._departed = list(extra.get("departed", []))


class AdaptiveCorruptionAdversary(Adversary):
    """Corrupts nodes after observing the clustering (outside the paper's model).

    Each step it injects a *new* Byzantine node aimed at the target cluster
    (equivalently: it adaptively corrupts the next joiner and steers it), and
    it never spends leaves.  Because corruption decisions depend on the
    current clustering, this is exactly the adaptive adversary the paper's
    static-adversary assumption rules out; NOW's shuffling still disperses the
    new corrupt nodes, but the global Byzantine fraction grows without bound,
    so the guarantees eventually fail — the negative control for E7.
    """

    def __init__(self, rng: random.Random, target_cluster: Optional[ClusterId] = None) -> None:
        super().__init__(rng)
        self._target = target_cluster

    def next_event(self, context: AdversaryContext) -> Optional[ChurnEvent]:
        if self._target is None or not context.has_cluster(self._target):
            self._target = _most_corrupted(context.byzantine_fractions())
        return ChurnEvent.join(role=NodeRole.BYZANTINE, contact_cluster=self._target)

    def _snapshot_extra(self) -> dict:
        return {"target": self._target}

    def _restore_extra(self, extra: dict) -> None:
        self._target = extra.get("target")
