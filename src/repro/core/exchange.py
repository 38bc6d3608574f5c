"""``exchange``: shuffling a cluster's nodes with the rest of the network.

Section 3.1: "some clusters exchange their nodes with nodes chosen at random
from other clusters.  For each node ``x`` to be exchanged from cluster ``C``,
a cluster is chosen at random using ``randCl``.  The chosen cluster ``C'`` is
informed that it will receive ``x``.  The cluster ``C'`` chooses one of its
nodes (using ``randNum``) to send in replacement of ``x``."  During an
exchange, neighbouring clusters are informed of the new composition of the
clusters involved, since inter-cluster message validation requires knowing
the membership of the sender cluster.

The expected cost reported by the paper is ``O(log^6 N)`` messages and
``O(log^4 N)`` rounds per full-cluster exchange: ``Theta(log N)`` exchanged
nodes, each requiring one ``randCl`` walk (``O(log^5 N)`` messages).

Exchanging all the nodes of a cluster is exactly the event analysed by
Lemma 1: afterwards, each member is an (almost) fresh uniform sample of the
network, so the cluster's Byzantine fraction concentrates around ``tau``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set, Tuple

from ..errors import UnknownClusterError
from ..network.message import MessageKind
from ..network.metrics import CommunicationMetrics
from ..network.node import NodeId
from .cluster import ClusterId
from .randcl import RandCl
from .randnum import RandNum, randnum_cost
from .state import SystemState


@dataclass
class ExchangeReport:
    """Summary of one full-cluster exchange."""

    cluster_id: ClusterId
    swaps: List[Tuple[NodeId, ClusterId, NodeId]] = field(default_factory=list)
    partner_clusters: Set[ClusterId] = field(default_factory=set)
    messages: int = 0
    rounds: int = 0
    walk_hops: int = 0

    @property
    def swap_count(self) -> int:
        """Number of member swaps actually performed."""
        return len(self.swaps)


class ExchangeProtocol:
    """Implements the ``exchange`` primitive on the shared system state."""

    def __init__(
        self,
        state: SystemState,
        randcl: RandCl,
        randnum: Optional[RandNum] = None,
    ) -> None:
        self._state = state
        self._randcl = randcl
        self._randnum = randnum if randnum is not None else RandNum(state.rng)

    # ------------------------------------------------------------------
    # Full-cluster exchange
    # ------------------------------------------------------------------
    def exchange_all(
        self,
        cluster_id: ClusterId,
        metrics: Optional[CommunicationMetrics] = None,
        label: str = "exchange",
    ) -> ExchangeReport:
        """Exchange every node of ``cluster_id`` with nodes picked at random.

        Each original member is swapped with a uniformly chosen node of a
        ``randCl``-selected cluster (the swap is skipped when the walk lands
        back on the same cluster — the member is then its own replacement,
        which does not change the distributional argument of Lemma 1 because
        the cluster is selected with probability ``|C| / n``).

        Swaps keep every cluster size, so the overlay, the walk cost model
        and each partner (its live sorted-member view and randNum cost) are
        resolved once per round.  One loop draws each member's partner,
        picks its replacement and applies the swap, in the order the
        member-by-member round consumed the engine stream; the registry
        emits one event for the round.
        """
        ledger = metrics if metrics is not None else self._state.metrics.scope(label)
        report = ExchangeReport(cluster_id=cluster_id)
        clusters = self._state.clusters
        cluster = clusters.get(cluster_id)
        members = cluster.members
        original_members = cluster.member_list()
        draw, vertices, price = self._randcl.round_partners(cluster_id, len(original_members))
        choose = self._randnum.choose
        is_byzantine = self._state.nodes.is_byzantine
        # Per walk endpoint (CSR row or cluster id): the partner, its live sorted
        # view and randNum cost, or () where the member stays (self or empty).
        partners: dict = {}
        walked = pick_messages = pick_rounds = 0
        with clusters.swapping(cluster_id) as (swap, applied):
            for node_id in original_members:
                if node_id not in members:
                    # Already swapped out by a previous iteration's partner choice.
                    continue
                key = draw()
                walked += 1
                partner = partners.get(key)
                if partner is None:
                    partner_id = key if vertices is None else vertices[key]
                    target = clusters.get(partner_id)
                    view = target.sorted_members()
                    stays = partner_id == cluster_id or not view
                    partner = partners[key] = () if stays else (target, view, *randnum_cost(len(view)))
                if not partner:
                    continue
                # The partner is informed it will receive ``node_id`` and
                # chooses a replacement uniformly via randNum.
                target, view, messages, rounds = partner
                pick_messages += messages
                pick_rounds += rounds
                swap(node_id, target, choose(view, is_byzantine))
        report.swaps = applied
        report.partner_clusters = {partner[0].cluster_id for partner in partners.values() if partner}
        walk_messages, walk_rounds, report.walk_hops = price(walked)
        cluster.exchanges_performed += 1
        cluster.last_full_exchange = self._state.time_step

        # The round books each kind once, and only a kind that occurred.
        if walked:
            ledger.charge(walk_messages, walk_rounds, kind=MessageKind.WALK, label=label)
        if applied:
            ledger.charge(pick_messages, pick_rounds, kind=MessageKind.RANDNUM, label=label)
        # Inform neighbouring clusters of the new compositions (batched at the
        # end of the operation; see design note 2 in docs/ARCHITECTURE.md).
        notify_messages, notify_rounds = notification_cost(
            self._state, [cluster_id, *sorted(report.partner_clusters)]
        )
        if notify_messages:
            ledger.charge(notify_messages, notify_rounds, kind=MessageKind.MEMBERSHIP, label=label)
        report.messages += walk_messages + pick_messages + notify_messages
        report.rounds += walk_rounds + pick_rounds + notify_rounds
        return report


def notification_cost(state: SystemState, cluster_ids: Iterable[ClusterId]) -> Tuple[int, int]:
    """``(messages, rounds)`` of telling overlay neighbours a new membership.

    Every member of an updated cluster sends the new composition to every
    member of every adjacent cluster (a neighbour accepts the update only
    when more than half of the cluster sent it, hence the full bipartite
    pattern); the updates of all of ``cluster_ids`` share one round.
    Overlay weights are the cluster sizes (``check_invariants`` checks it),
    so ``C`` costs ``|C| * S(C)``, ``S`` the CSR's neighbour-weight sums.
    """
    clusters = state.clusters
    layout = state.overlay.graph.csr()
    sums = layout.neighbour_weight_sums()
    messages = 0.0
    for cluster_id in cluster_ids:
        try:  # a cluster gone from the overlay or the registry is told nothing
            row, size = layout.row_of(cluster_id), len(clusters.get(cluster_id).members)
        except (KeyError, UnknownClusterError):
            continue
        messages += size * sums[row]
    messages = int(messages)
    return messages, 1 if messages else 0
