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
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import UnknownClusterError, WalkError
from ..network.message import MessageKind
from ..network.metrics import CommunicationMetrics
from ..walks.sampler import WalkMode
from .cluster import ClusterId
from .randcl import RandCl
from .randnum import RandNum
from .state import SystemState


@dataclass
class ExchangeReport:
    """Totals of one exchange pass: each of ``cluster_ids`` exchanged, in order."""

    cluster_ids: List[ClusterId] = field(default_factory=list)
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
        cluster_ids: Sequence[ClusterId],
        metrics: Optional[CommunicationMetrics] = None,
        label: str = "exchange",
    ) -> ExchangeReport:
        """Exchange every node of each cluster of ``cluster_ids``, in order, as one pass.

        A cluster's round swaps each member, slot by slot, with a uniformly
        chosen member of a ``randCl``-selected cluster (the swap is skipped
        when the walk lands back on the same cluster — the member is then
        its own replacement, which does not change the distributional
        argument of Lemma 1 because the cluster is selected with
        probability ``|C| / n``).  Under oracle walks the two choices are
        one uniform draw over the clustered population.  A join passes its
        host; a leave passes its cluster, then the clusters that traded
        with it.

        Swaps keep every cluster size, so the overlay, the walk cost model
        and each partner's size are fixed for the pass.  The registry runs
        it as one pass (:meth:`~repro.core.cluster.ClusterRegistry.
        exchange_pass`), and it is priced in closed form: each walk at its
        cost (every oracle walk of a pass at the same one), a partner of
        size ``s`` picked ``p`` times at ``p * 2 s (s - 1)`` randNum
        messages and ``2 p`` rounds, and each round's notification at
        ``s * S`` per cluster it updated, ``S`` the cluster's neighbours'
        total size.  Each kind that occurred is charged once.  A refused
        swap raises with the swaps before it made and charges nothing.
        """
        state = self._state
        clusters = state.clusters
        exchanged = [clusters.get(cluster_id) for cluster_id in cluster_ids]
        report = ExchangeReport(cluster_ids=[cluster.cluster_id for cluster in exchanged])
        if not exchanged:
            return report
        overlay = state.overlay.graph
        for cluster_id in report.cluster_ids:
            if cluster_id not in overlay:
                raise WalkError(f"cluster {cluster_id} is not an overlay vertex")
        ledger = metrics if metrics is not None else state.metrics.scope(label)
        randcl = self._randcl
        getrandbits, choose = self._randnum.pass_picks(state.nodes.is_byzantine)
        walked = sum(map(len, exchanged))
        if randcl.walk_mode is WalkMode.SIMULATED:
            # The whole pass's walks, one per member, as one batch of rows.
            layout = overlay.csr()
            starts = []
            for cluster in exchanged:
                starts += [layout.row_of(cluster.cluster_id)] * len(cluster.members)
            rows, (walk_messages, walk_rounds, walk_hops) = randcl.pass_walks(starts)
            swaps, pairs, rounds = clusters.exchange_pass(
                report.cluster_ids, layout, getrandbits, rows, choose
            )
        else:
            draw, layout, each_walk = randcl.oracle_walks(report.cluster_ids[0])
            walk_messages, walk_rounds, walk_hops = (walked * cost for cost in each_walk)
            swaps, pairs, rounds = clusters.exchange_pass(
                report.cluster_ids, layout, draw, None, choose
            )
        time_step = state.time_step
        for cluster in exchanged:
            cluster.exchanges_performed += 1
            cluster.last_full_exchange = time_step

        # Each round informs the neighbours of its cluster and of its
        # partners (batched at the end of the operation; see design note 2
        # in docs/ARCHITECTURE.md).  Overlay weights are the cluster sizes,
        # and every term is an integer below 2**53, so the sums are exact.
        cum, bases, _ = layout.population()
        sums, vertices, row_of = layout.neighbour_weight_sums(), layout.vertices, layout.row_of
        partner_rows = set().union(*rounds)
        terms = {row: (cum[row] - bases[row]) * sums[row] for row in partner_rows}
        notify_messages = notify_rounds = 0
        for cluster, rows in zip(exchanged, rounds):
            messages = len(cluster.members) * sums[row_of(cluster.cluster_id)]
            messages += sum(map(terms.__getitem__, rows))
            if messages:
                notify_messages += int(messages)
                notify_rounds += 1
        report.partner_clusters.update(map(vertices.__getitem__, partner_rows))
        pick_messages, pick_rounds = 2 * pairs, 2 * swaps

        # The pass books each kind once, and only a kind that occurred.
        if walked:
            ledger.charge(walk_messages, walk_rounds, kind=MessageKind.WALK, label=label)
        if swaps:
            ledger.charge(pick_messages, pick_rounds, kind=MessageKind.RANDNUM, label=label)
        if notify_messages:
            ledger.charge(notify_messages, notify_rounds, kind=MessageKind.MEMBERSHIP, label=label)
        report.swap_count = swaps
        report.messages = walk_messages + pick_messages + notify_messages
        report.rounds = walk_rounds + pick_rounds + notify_rounds
        report.walk_hops = walk_hops
        return report


def notification_cost(state: SystemState, cluster_ids: Iterable[ClusterId]) -> Tuple[int, int]:
    """``(messages, rounds)`` of telling overlay neighbours a new membership.

    Every member of an updated cluster sends the new composition to every
    member of every adjacent cluster (a neighbour accepts the update only
    when more than half of the cluster sent it, hence the full bipartite
    pattern); the updates of all of ``cluster_ids`` share one round.  A
    cluster gone from the overlay or the registry is told nothing.

    Overlay weights are the cluster sizes (``check_invariants`` checks it),
    so ``C`` costs ``|C| * S(C)``, ``S`` the CSR's neighbour-weight sums.
    Every term is an integer below ``2**53``, so the sum is exact in any
    order.
    """
    clusters = state.clusters
    layout = state.overlay.graph.csr()
    sums = layout.neighbour_weight_sums()
    messages = 0.0
    for cluster_id in cluster_ids:
        try:
            row, size = layout.row_of(cluster_id), len(clusters.get(cluster_id).members)
        except (KeyError, UnknownClusterError):
            continue
        messages += size * sums[row]
    messages = int(messages)
    return messages, 1 if messages else 0
