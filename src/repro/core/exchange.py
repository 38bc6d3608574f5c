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
from ..walks.csr import CSRLayout
from .cluster import ClusterId
from .randcl import RandCl
from .randnum import RandNum
from .state import SystemState


@dataclass
class ExchangeReport:
    """Summary of one full-cluster exchange."""

    cluster_id: ClusterId
    swap_count: int = 0
    partner_clusters: Set[ClusterId] = field(default_factory=set)
    messages: int = 0
    rounds: int = 0
    walk_hops: int = 0


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

        Each member, slot by slot, is swapped with a uniformly chosen member
        of a ``randCl``-selected cluster (the swap is skipped when the walk
        lands back on the same cluster — the member is then its own
        replacement, which does not change the distributional argument of
        Lemma 1 because the cluster is selected with probability
        ``|C| / n``).  Under oracle walks the two choices are one uniform
        draw over the clustered population.

        Swaps keep every cluster size, so the overlay, the walk cost model
        and each partner's size are fixed for the round.  The registry runs
        the round as one pass (:meth:`~repro.core.cluster.ClusterRegistry.
        exchange_round`), and the round is priced in closed form from its
        partner table: a partner of size ``s`` picked ``p`` times costs
        ``p * 2 s (s - 1)`` randNum messages and ``2 p`` rounds, and the
        notification costs ``s * S`` per updated cluster, ``S`` its
        neighbours' total size.
        """
        state = self._state
        ledger = metrics if metrics is not None else state.metrics.scope(label)
        clusters = state.clusters
        cluster = clusters.get(cluster_id)
        walked = len(cluster)
        partners, layout, (walk_messages, walk_rounds, walk_hops) = self._randcl.round_partners(
            cluster_id, walked
        )
        table = clusters.exchange_round(
            cluster_id, layout, partners, *self._randnum.round_picks(state.nodes.is_byzantine)
        )
        cluster.exchanges_performed += 1
        cluster.last_full_exchange = state.time_step

        rows, sizes = [layout.row_of(cluster_id)], [walked]
        partner_clusters = set()
        swaps = pick_units = 0
        for row, entry in table.items():
            if entry:
                size, picks = entry[3], entry[5]
                swaps += picks
                pick_units += picks * size * (size - 1)
                partner_clusters.add(entry[0])
                rows.append(row)
                sizes.append(size)
        pick_messages, pick_rounds = 2 * pick_units, 2 * swaps

        # The round books each kind once, and only a kind that occurred.
        if walked:
            ledger.charge(walk_messages, walk_rounds, kind=MessageKind.WALK, label=label)
        if swaps:
            ledger.charge(pick_messages, pick_rounds, kind=MessageKind.RANDNUM, label=label)
        # Inform neighbouring clusters of the new compositions (batched at the
        # end of the operation; see design note 2 in docs/ARCHITECTURE.md).
        notify_messages, notify_rounds = row_notification_cost(layout, rows, sizes)
        if notify_messages:
            ledger.charge(notify_messages, notify_rounds, kind=MessageKind.MEMBERSHIP, label=label)
        return ExchangeReport(
            cluster_id=cluster_id,
            swap_count=swaps,
            partner_clusters=partner_clusters,
            messages=walk_messages + pick_messages + notify_messages,
            rounds=walk_rounds + pick_rounds + notify_rounds,
            walk_hops=walk_hops,
        )


def notification_cost(state: SystemState, cluster_ids: Iterable[ClusterId]) -> Tuple[int, int]:
    """``(messages, rounds)`` of telling overlay neighbours a new membership.

    Every member of an updated cluster sends the new composition to every
    member of every adjacent cluster (a neighbour accepts the update only
    when more than half of the cluster sent it, hence the full bipartite
    pattern); the updates of all of ``cluster_ids`` share one round.  A
    cluster gone from the overlay or the registry is told nothing.
    """
    clusters = state.clusters
    layout = state.overlay.graph.csr()
    rows: List[int] = []
    sizes: List[int] = []
    for cluster_id in cluster_ids:
        try:
            row, size = layout.row_of(cluster_id), len(clusters.get(cluster_id).members)
        except (KeyError, UnknownClusterError):
            continue
        rows.append(row)
        sizes.append(size)
    return row_notification_cost(layout, rows, sizes)


def row_notification_cost(layout: CSRLayout, rows: List[int], sizes: List[int]) -> Tuple[int, int]:
    """:func:`notification_cost` of the clusters at CSR ``rows``, of sizes ``sizes``.

    Overlay weights are the cluster sizes (``check_invariants`` checks it),
    so ``C`` costs ``|C| * S(C)``, ``S`` the CSR's neighbour-weight sums.
    Every term is an integer below ``2**53``, so the sum is exact in any
    order.
    """
    sums = layout.neighbour_weight_sums()
    messages = 0.0
    for row, size in zip(rows, sizes):
        messages += size * sums[row]
    messages = int(messages)
    return messages, 1 if messages else 0
