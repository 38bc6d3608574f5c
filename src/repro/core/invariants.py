"""Invariant checking for the maintained system.

The guarantees the paper proves are properties of the *state* maintained by
NOW; the checks below make them executable so tests, property-based tests and
long churn experiments can assert them after every time step:

* **Partition** — every active node belongs to exactly one cluster, every
  cluster member is an active node, no cluster is empty, no node fills two
  slots; the registry's node index agrees with every cluster's slots.
* **Size bounds** — cluster sizes stay within ``[k log N / l, l k log N]``
  (immediately after the induced split/merge of the time step).
* **Honest supermajority** — no cluster's Byzantine fraction reaches one
  third (Theorem 3).
* **Overlay consistency** — overlay vertices are exactly the live cluster
  ids, weights equal cluster sizes, the overlay is connected, and Property 2's
  maximum-degree bound holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .cluster import ClusterId
from .state import SystemState


@dataclass
class InvariantReport:
    """Result of one invariant sweep over the system state."""

    time_step: int
    holds: bool
    violations: List[str] = field(default_factory=list)
    cluster_count: int = 0
    network_size: int = 0
    min_cluster_size: int = 0
    max_cluster_size: int = 0
    worst_byzantine_fraction: float = 0.0
    compromised_clusters: List[ClusterId] = field(default_factory=list)
    overlay_max_degree: int = 0
    overlay_connected: bool = True

    def summary(self) -> str:
        """One-line human readable summary."""
        status = "OK" if self.holds else f"VIOLATED ({len(self.violations)})"
        return (
            f"t={self.time_step} {status}: n={self.network_size}, "
            f"#C={self.cluster_count}, sizes [{self.min_cluster_size},"
            f"{self.max_cluster_size}], worst corruption "
            f"{self.worst_byzantine_fraction:.3f}"
        )


def check_invariants(
    state: SystemState,
    check_size_bounds: bool = True,
    check_honest_majority: bool = True,
    check_overlay: bool = True,
) -> InvariantReport:
    """Run every invariant check against ``state`` and return the findings."""
    violations: List[str] = []

    sizes = [len(cluster) for cluster in state.clusters.clusters()]
    fractions = state.byzantine_fractions()
    compromised = state.compromised_clusters()

    _check_partition(state, violations)
    if check_size_bounds:
        _check_size_bounds(state, violations)
    if check_honest_majority and compromised:
        for cluster_id in compromised:
            violations.append(
                f"cluster {cluster_id} has Byzantine fraction "
                f"{fractions[cluster_id]:.3f} >= 1/3"
            )
    overlay_graph = state.overlay.graph
    if check_overlay:
        _check_overlay(state, violations)

    return InvariantReport(
        time_step=state.time_step,
        holds=not violations,
        violations=violations,
        cluster_count=len(state.clusters),
        network_size=state.network_size,
        min_cluster_size=min(sizes) if sizes else 0,
        max_cluster_size=max(sizes) if sizes else 0,
        worst_byzantine_fraction=max(fractions.values()) if fractions else 0.0,
        compromised_clusters=compromised,
        overlay_max_degree=overlay_graph.max_degree(),
        overlay_connected=overlay_graph.is_connected(),
    )


# ----------------------------------------------------------------------
# Individual checks
# ----------------------------------------------------------------------
def _check_partition(state: SystemState, violations: List[str]) -> None:
    clusters = state.clusters
    seen: Dict[int, ClusterId] = {}
    for cluster in clusters.clusters():
        if not cluster.members:
            violations.append(f"cluster {cluster.cluster_id} is empty")
        for node_id in cluster.members:
            if node_id in seen:
                violations.append(
                    f"node {node_id} appears in clusters {seen[node_id]} "
                    f"and {cluster.cluster_id}"
                )
            seen[node_id] = cluster.cluster_id
            indexed = clusters.cluster_of(node_id) if clusters.contains_node(node_id) else None
            if indexed != cluster.cluster_id:
                violations.append(
                    f"node index places member {node_id} of cluster {cluster.cluster_id} "
                    f"in {indexed}"
                )
            if node_id not in state.nodes:
                violations.append(f"cluster member {node_id} is not a registered node")
            elif not state.nodes.is_active(node_id):
                violations.append(
                    f"cluster {cluster.cluster_id} contains departed node {node_id}"
                )
    for node_id in state.nodes.active_nodes():
        if node_id not in seen:
            violations.append(f"active node {node_id} is not assigned to any cluster")
    stale = clusters.total_nodes() - len(seen)
    if stale > 0:
        violations.append(f"node index has entries for {stale} non-member node(s)")


def _check_size_bounds(state: SystemState, violations: List[str]) -> None:
    lower = state.parameters.merge_threshold
    upper = state.parameters.split_threshold
    multiple_clusters = len(state.clusters) > 1
    for cluster in state.clusters.clusters():
        size = len(cluster)
        if size > upper:
            violations.append(
                f"cluster {cluster.cluster_id} has size {size} > split threshold {upper}"
            )
        if multiple_clusters and size < lower:
            violations.append(
                f"cluster {cluster.cluster_id} has size {size} < merge threshold {lower}"
            )


def _check_overlay(state: SystemState, violations: List[str]) -> None:
    overlay_graph = state.overlay.graph
    cluster_ids = set(state.clusters.cluster_ids())
    overlay_ids = set(overlay_graph.vertices())
    for missing in sorted(cluster_ids - overlay_ids):
        violations.append(f"cluster {missing} has no overlay vertex")
    for stale in sorted(overlay_ids - cluster_ids):
        violations.append(f"overlay vertex {stale} has no live cluster")
    for cluster_id in sorted(cluster_ids & overlay_ids):
        weight = overlay_graph.weight(cluster_id)
        size = len(state.clusters.get(cluster_id))
        if int(round(weight)) != size:
            violations.append(
                f"overlay weight of cluster {cluster_id} is {weight}, size is {size}"
            )
    if len(overlay_ids) > 1 and not overlay_graph.is_connected():
        violations.append("overlay graph is disconnected")
    degree_cap = state.parameters.overlay_degree_cap
    max_degree = overlay_graph.max_degree()
    if max_degree > degree_cap:
        violations.append(
            f"overlay maximum degree {max_degree} exceeds the cap {degree_cap}"
        )
