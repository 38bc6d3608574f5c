"""NOW maintenance operations: Join, Leave, Split, Merge (Section 3.3, Figure 2).

Each operation mutates the shared :class:`~repro.core.state.SystemState`
(cluster membership, overlay structure) and returns an
:class:`OperationReport` with the measured communication cost, the clusters
it touched and any secondary operations it triggered (a Join can trigger a
Split, a Leave can trigger a Merge, a Merge re-joins its nodes which can in
turn trigger Splits).

Cost accounting follows the paper's inter-cluster communication rule: a
message "from a cluster" is the same payload sent by every member to every
member of the target cluster (a receiver accepts it only when more than half
of the senders agree), so informing a neighbouring cluster of a membership
change costs ``|C| * |C_adj|`` messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import ProtocolViolationError, UnknownClusterError
from ..network.message import MessageKind
from ..network.metrics import CommunicationMetrics
from ..network.node import NodeId
from ..overlay.over import OverlayChange
from ..rng import shuffled
from .cluster import ClusterId
from .exchange import ExchangeProtocol, ExchangeReport, notification_cost
from .randcl import RandCl
from .randnum import RandNum
from .state import SystemState


@dataclass
class OperationReport:
    """Measured outcome of one maintenance operation."""

    operation: str
    node_id: Optional[NodeId] = None
    primary_cluster: Optional[ClusterId] = None
    messages: int = 0
    rounds: int = 0
    walk_hops: int = 0
    exchanged_nodes: int = 0
    new_cluster: Optional[ClusterId] = None
    triggered: List["OperationReport"] = field(default_factory=list)

    def absorb_exchange(self, report: ExchangeReport) -> None:
        """Fold an exchange report's costs into this operation report."""
        self.messages += report.messages
        self.rounds += report.rounds
        self.walk_hops += report.walk_hops
        self.exchanged_nodes += report.swap_count

    def absorb(self, other: "OperationReport") -> None:
        """Fold a secondary operation's costs into this report and record it."""
        self.messages += other.messages
        self.rounds += other.rounds
        self.walk_hops += other.walk_hops
        self.exchanged_nodes += other.exchanged_nodes
        self.triggered.append(other)

    def total_messages(self) -> int:
        """Messages including every (already absorbed) secondary operation."""
        return self.messages

    def operations_flat(self) -> List[str]:
        """Names of this operation and of every transitively triggered one."""
        names = [self.operation]
        for sub in self.triggered:
            names.extend(sub.operations_flat())
        return names


class _BaseOperation:
    """Shared plumbing: cost helpers and access to the primitives."""

    def __init__(
        self,
        state: SystemState,
        randcl: RandCl,
        randnum: Optional[RandNum] = None,
        exchange: Optional[ExchangeProtocol] = None,
    ) -> None:
        self._state = state
        self._randcl = randcl
        self._randnum = randnum if randnum is not None else RandNum(state.rng)
        self._exchange = (
            exchange
            if exchange is not None
            else ExchangeProtocol(state, randcl, self._randnum)
        )

    # ------------------------------------------------------------------
    # Cost helpers
    # ------------------------------------------------------------------
    def _ledger(self, label: str) -> CommunicationMetrics:
        return self._state.metrics.scope(label)

    def _cluster_size(self, cluster_id: ClusterId) -> int:
        if cluster_id in self._state.clusters:
            return len(self._state.clusters.get(cluster_id))
        return 0

    def _book_membership(
        self, report: OperationReport, ledger: CommunicationMetrics, label: str, cost: Tuple[int, int]
    ) -> None:
        """Add membership traffic ``(messages, rounds)`` to the report and the ledger."""
        messages, rounds = cost
        if messages:
            ledger.charge(messages, rounds, kind=MessageKind.MEMBERSHIP, label=label)
        report.messages += messages
        report.rounds += rounds

    def _overlay_change_cost(self, change: OverlayChange) -> Tuple[int, int]:
        """Cost of establishing/tearing down the full bipartite links of overlay edges."""
        messages = 0
        for edges in (change.edges_added, change.edges_removed):
            for first, second in edges:
                messages += self._cluster_size(first) * self._cluster_size(second)
        return (messages, 1 if messages else 0)

    def _overlay_choose_cluster(
        self, walk_start: ClusterId, report: OperationReport, ledger: CommunicationMetrics, label: str
    ):
        """Build the ``choose_cluster`` callable OVER uses for edge targets.

        Each choice is one ``randCl`` walk, booked in ``ledger`` and added
        to ``report``.
        """

        def choose(_origin: ClusterId) -> ClusterId:
            result = self._randcl.select(walk_start, metrics=ledger, label=label)
            report.messages += result.messages
            report.rounds += result.rounds
            report.walk_hops += result.hops
            return result.cluster_id

        return choose


class JoinOperation(_BaseOperation):
    """Algorithm 1: a node joins the network."""

    def execute(
        self,
        node_id: NodeId,
        contact_cluster: ClusterId,
        allow_split: bool = True,
    ) -> OperationReport:
        """Insert ``node_id`` via ``contact_cluster`` and reshuffle the target cluster.

        The contacted cluster selects the hosting cluster with ``randCl``; the
        hosting cluster adds the node, informs its neighbours, hands the local
        overlay structure to the newcomer, exchanges all of its nodes, and
        splits if it grew past ``l * k * log N``.
        """
        label = "join"
        ledger = self._ledger(label)
        report = OperationReport(operation="join", node_id=node_id)
        if contact_cluster not in self._state.clusters:
            raise UnknownClusterError(f"contact cluster {contact_cluster} does not exist")
        if self._state.clusters.contains_node(node_id):
            raise ProtocolViolationError(f"node {node_id} is already in a cluster")

        walk = self._randcl.select(contact_cluster, metrics=ledger, label=label)
        report.messages += walk.messages
        report.rounds += walk.rounds
        report.walk_hops += walk.hops
        host_id = walk.cluster_id
        report.primary_cluster = host_id

        self._state.clusters.add_member(host_id, node_id)

        # The host informs its neighbours and sends the newcomer its local view
        # (membership of the host and of every adjacent cluster).
        self._book_membership(report, ledger, label, notification_cost(self._state, [host_id]))
        self._book_membership(report, ledger, label, (self._cluster_size(host_id), 1))

        # Shuffle the host cluster so the adversary cannot aim joins at it.
        exchange_report = self._exchange.exchange_all([host_id], metrics=ledger, label=label)
        report.absorb_exchange(exchange_report)

        if allow_split and self._cluster_size(host_id) > self._state.parameters.split_threshold:
            split = SplitOperation(self._state, self._randcl, self._randnum, self._exchange)
            report.absorb(split.execute(host_id))
        return report


class LeaveOperation(_BaseOperation):
    """Algorithm 2: a node leaves (or is detected as departed)."""

    def __init__(
        self,
        state: SystemState,
        randcl: RandCl,
        randnum: Optional[RandNum] = None,
        exchange: Optional[ExchangeProtocol] = None,
        cascade_exchanges: bool = True,
    ) -> None:
        super().__init__(state, randcl, randnum, exchange)
        self._cascade_exchanges = cascade_exchanges

    def execute(self, node_id: NodeId, allow_merge: bool = True) -> OperationReport:
        """Handle the departure of ``node_id`` from its cluster.

        The cluster removes the node, informs its neighbours, exchanges all of
        its nodes, and — as required by the proof of Theorem 3 — every cluster
        that traded a node with it exchanges all of *its* nodes too
        (``cascade_exchanges``).  If the cluster dropped below
        ``k * log N / l`` it is merged away.
        """
        label = "leave"
        ledger = self._ledger(label)
        cluster_id = self._state.clusters.cluster_of(node_id)
        report = OperationReport(operation="leave", node_id=node_id, primary_cluster=cluster_id)

        self._state.clusters.remove_member(cluster_id, node_id)
        self._book_membership(report, ledger, label, notification_cost(self._state, [cluster_id]))

        exchange_report = self._exchange.exchange_all([cluster_id], metrics=ledger, label=label)
        report.absorb_exchange(exchange_report)
        if self._cascade_exchanges and exchange_report.partner_clusters:
            # The cascade is one pass over the partners, in id order.
            cascade = sorted(exchange_report.partner_clusters)
            report.absorb_exchange(self._exchange.exchange_all(cascade, metrics=ledger, label=label))

        if (
            allow_merge
            and self._cluster_size(cluster_id) < self._state.parameters.merge_threshold
            and len(self._state.clusters) > 1
        ):
            merge = MergeOperation(self._state, self._randcl, self._randnum, self._exchange)
            report.absorb(merge.execute(cluster_id))
        return report


class SplitOperation(_BaseOperation):
    """Split an oversized cluster into two (Figure 2, ``Split``)."""

    def execute(self, cluster_id: ClusterId) -> OperationReport:
        """Partition ``cluster_id`` into two clusters of roughly equal size.

        The old cluster keeps its identifier and overlay neighbourhood; the
        new one is inserted into the overlay with OVER's ``Add`` using
        ``randCl``-chosen neighbours (anchored at its sibling so the overlay
        stays connected).
        """
        label = "split"
        ledger = self._ledger(label)
        cluster = self._state.clusters.get(cluster_id)
        report = OperationReport(operation="split", primary_cluster=cluster_id)
        if len(cluster) < 2:
            raise ProtocolViolationError(f"cluster {cluster_id} is too small to split")

        # The members compute a random bisection via randNum.
        byzantine = self._state.nodes.active_byzantine()
        seed_result = self._randnum.generate(
            cluster.members,
            upper_bound=2 ** 30,
            byzantine_members=byzantine,
            metrics=ledger,
            label=label,
        )
        report.messages += seed_result.messages
        report.rounds += seed_result.rounds

        ordering = shuffled(self._state.rng, cluster.member_list())
        half = len(ordering) // 2
        move_members = ordering[half:]

        new_cluster = self._state.clusters.create_cluster(
            [], created_at=self._state.time_step
        )
        for node in move_members:
            self._state.clusters.move_member(node, new_cluster.cluster_id)

        change = self._state.overlay.add_vertex(
            new_cluster.cluster_id,
            weight=float(len(new_cluster)),
            choose_cluster=self._overlay_choose_cluster(cluster_id, report, ledger, label),
            anchor=cluster_id,
        )
        self._book_membership(report, ledger, label, self._overlay_change_cost(change))
        for touched in (cluster_id, new_cluster.cluster_id):
            self._book_membership(report, ledger, label, notification_cost(self._state, [touched]))

        report.new_cluster = new_cluster.cluster_id
        return report


class MergeOperation(_BaseOperation):
    """Dissolve an undersized cluster (Figure 2, ``Merge``).

    ``join`` is the operation the former members re-join through: NOW's
    :class:`JoinOperation` by default, a comparison rule's own join
    (:mod:`repro.core.placement`) otherwise.
    """

    def __init__(
        self,
        state: SystemState,
        randcl: RandCl,
        randnum: Optional[RandNum] = None,
        exchange: Optional[ExchangeProtocol] = None,
        join=None,
    ) -> None:
        super().__init__(state, randcl, randnum, exchange)
        self._join = join

    def execute(self, cluster_id: ClusterId) -> OperationReport:
        """Remove ``cluster_id`` from the overlay and re-join its members.

        The cluster informs its neighbours, OVER's ``Remove`` patches the
        overlay with replacement edges, and every former member re-joins the
        network through the join operation (contacting a surviving cluster),
        which under NOW re-shuffles them across the system.
        """
        label = "merge"
        ledger = self._ledger(label)
        report = OperationReport(operation="merge", primary_cluster=cluster_id)
        if len(self._state.clusters) <= 1:
            raise ProtocolViolationError("cannot merge away the only remaining cluster")

        self._book_membership(report, ledger, label, notification_cost(self._state, [cluster_id]))

        cluster = self._state.clusters.dissolve_cluster(cluster_id)
        members = sorted(cluster.members)

        survivors = self._state.clusters.cluster_ids()
        walk_start = survivors[self._state.rng.randrange(len(survivors))]
        change = self._state.overlay.remove_vertex(
            cluster_id,
            choose_cluster=self._overlay_choose_cluster(walk_start, report, ledger, label),
        )
        self._book_membership(report, ledger, label, self._overlay_change_cost(change))

        join = self._join or JoinOperation(
            self._state, self._randcl, self._randnum, self._exchange
        )
        for node_id in members:
            survivors = self._state.clusters.cluster_ids()
            contact = survivors[self._state.rng.randrange(len(survivors))]
            rejoin_report = join.execute(node_id, contact)
            report.absorb(rejoin_report)
        return report
