"""Placement rules: where a joiner lands and what a departure sets off.

:class:`~repro.core.engine.NowEngine` runs one rule, chosen once at
construction by name (``Scenario.engine``).  ``now`` is the paper's protocol
(Algorithms 1 and 2: a ``randCl`` walk places the joiner, and every join and
leave exchanges the whole touched cluster).  The other three are the
comparison schemes of Section 3.3, with no walk and no exchange on the
per-event path:

* ``no_shuffle`` — the joiner stays in the cluster it contacted, so the
  adversary chooses placement; the join–leave attack captures a cluster
  quickly (E7's negative control).
* ``cuckoo_rule`` — the joiner lands in a uniformly random cluster, which
  evicts :data:`EVICTIONS_PER_JOIN` random incumbents to uniformly random
  other clusters (Awerbuch–Scheideler's rule at cluster granularity);
  departures shuffle nothing.
* ``static_clusters`` — the joiner lands in a uniformly random cluster and
  the cluster count never changes: no split, no merge, and a cluster left
  empty stays (E6's failure under polynomial growth).

Every rule that regulates sizes uses NOW's own
:class:`~repro.core.operations.SplitOperation` and
:class:`~repro.core.operations.MergeOperation`, and a merge re-places its
members through the rule's own join, so no cluster ends a step above
``split_threshold``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..errors import ConfigurationError
from ..network.node import NodeId
from .cluster import ClusterId
from .exchange import ExchangeProtocol
from .operations import (
    JoinOperation,
    LeaveOperation,
    MergeOperation,
    OperationReport,
    SplitOperation,
    _BaseOperation,
)
from .randcl import RandCl
from .randnum import RandNum
from .state import SystemState

#: Incumbents a ``cuckoo_rule`` join evicts from its host cluster.
EVICTIONS_PER_JOIN = 2


class ContactJoin(_BaseOperation):
    """``no_shuffle``: the joiner stays in the contacted cluster."""

    #: Whether the rule splits oversized clusters (and merges undersized ones).
    regulates_size = True

    def _host(self, contact_cluster: ClusterId) -> ClusterId:
        return contact_cluster

    def _evict(self, host_id: ClusterId, node_id: NodeId) -> Tuple[ClusterId, ...]:
        """Move incumbents out of the host; returns the clusters that grew."""
        return ()

    def execute(self, node_id: NodeId, contact_cluster: ClusterId) -> OperationReport:
        """Place ``node_id`` by the rule; split what grew past ``split_threshold``."""
        host_id = self._host(contact_cluster)
        report = OperationReport(operation="join", node_id=node_id, primary_cluster=host_id)
        self._state.clusters.add_member(host_id, node_id)
        grown = (host_id,) + self._evict(host_id, node_id)
        if self.regulates_size:
            self._split_oversized(report, grown)
        return report

    def _split_oversized(self, report: OperationReport, cluster_ids: Iterable[ClusterId]) -> None:
        threshold = self._state.parameters.split_threshold
        for cluster_id in dict.fromkeys(cluster_ids):
            if self._cluster_size(cluster_id) > threshold:
                split = SplitOperation(self._state, self._randcl, self._randnum, self._exchange)
                report.absorb(split.execute(cluster_id))


class UniformJoin(ContactJoin):
    """``static_clusters``: a uniformly random host, and sizes are never regulated."""

    regulates_size = False

    def _host(self, contact_cluster: ClusterId) -> ClusterId:
        return self._state.clusters.sample_id(self._state.rng)


class CuckooJoin(UniformJoin):
    """``cuckoo_rule``: a uniformly random host that evicts incumbents."""

    regulates_size = True

    def _evict(self, host_id: ClusterId, node_id: NodeId) -> Tuple[ClusterId, ...]:
        clusters = self._state.clusters
        rng = self._state.rng
        candidates = [member for member in clusters.get(host_id).member_list() if member != node_id]
        others = [cluster_id for cluster_id in clusters.cluster_ids() if cluster_id != host_id]
        if not candidates or not others:
            return ()
        destinations = []
        for member in rng.sample(candidates, min(EVICTIONS_PER_JOIN, len(candidates))):
            destination = others[rng.randrange(len(others))]
            clusters.move_member(member, destination)
            destinations.append(destination)
        return tuple(destinations)


class RemovalLeave(_BaseOperation):
    """Leave of the comparison rules: remove the node, merge its cluster if undersized."""

    def __init__(
        self,
        state: SystemState,
        randcl: RandCl,
        randnum: RandNum,
        exchange: ExchangeProtocol,
        merge: Optional[MergeOperation],
    ) -> None:
        super().__init__(state, randcl, randnum, exchange)
        self._merge = merge

    def execute(self, node_id: NodeId) -> OperationReport:
        """Remove ``node_id``; no exchange, and a merge only if the rule merges."""
        clusters = self._state.clusters
        cluster_id = clusters.cluster_of(node_id)
        report = OperationReport(operation="leave", node_id=node_id, primary_cluster=cluster_id)
        clusters.remove_member(cluster_id, node_id)
        if (
            self._merge is not None
            and self._cluster_size(cluster_id) < self._state.parameters.merge_threshold
            and len(clusters) > 1
        ):
            report.absorb(self._merge.execute(cluster_id))
        return report


#: Rule name -> the join operation of a comparison rule (``now`` is NOW's own).
COMPARISON_JOINS: Dict[str, type] = {
    "no_shuffle": ContactJoin,
    "cuckoo_rule": CuckooJoin,
    "static_clusters": UniformJoin,
}

#: Every placement rule name ``Scenario.engine`` accepts.
PLACEMENT_RULES = ("now",) + tuple(COMPARISON_JOINS)


def check_rule(rule: str) -> str:
    """``rule`` if it names a placement rule; a :class:`ConfigurationError` otherwise."""
    if rule not in PLACEMENT_RULES:
        raise ConfigurationError(
            f"unknown engine {rule!r}; expected one of {list(PLACEMENT_RULES)}"
        )
    return rule


def placement_operations(
    rule: str,
    state: SystemState,
    randcl: RandCl,
    randnum: RandNum,
    exchange: ExchangeProtocol,
    cascade_exchanges: bool = True,
) -> Tuple[_BaseOperation, _BaseOperation]:
    """The ``(join, leave)`` operations of ``rule`` over ``state``."""
    if check_rule(rule) == "now":
        return (
            JoinOperation(state, randcl, randnum, exchange),
            LeaveOperation(state, randcl, randnum, exchange, cascade_exchanges=cascade_exchanges),
        )
    join = COMPARISON_JOINS[rule](state, randcl, randnum, exchange)
    merge = MergeOperation(state, randcl, randnum, exchange, join=join) if join.regulates_size else None
    return join, RemovalLeave(state, randcl, randnum, exchange, merge)
