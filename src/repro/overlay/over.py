"""OVER: maintenance of the expander overlay under vertex churn.

The short paper specifies *what* OVER guarantees (Properties 1 and 2) and
*when* its operations are invoked (Figure 2): ``Add`` gives a freshly split
cluster a new neighbourhood, ``Remove`` takes a merged-away cluster out of
the overlay and patches the hole with ``2 log^2 N`` edges chosen through
``randCl``.  The exact edge-regulation rules are in the unavailable long
version, so :class:`OverOverlay` reconstructs them as follows (docs/ARCHITECTURE.md design notes):

* **Bootstrap** — Erdős–Rényi graph with ``p = log^(1+alpha) N / sqrt N``.
* **Add(C)** — the new vertex draws ``overlay_degree_target`` neighbours; each
  neighbour is picked by the supplied ``choose_cluster`` callable (NOW passes
  ``randCl``, i.e. a size-biased random cluster), falling back to uniform
  choice when no callable is given.
* **Remove(C)** — the vertex disappears; ``2 log^2 N`` replacement edges
  (capped by the number of available pairs) are added between clusters chosen
  by ``choose_cluster`` to compensate the lost expansion.
* **Over-valuation regulation** — after every operation, any vertex whose
  degree exceeds ``c log^(1+alpha) N`` drops uniformly random incident edges
  (never disconnecting its last edge) until it is back under the cap.  This
  is the "over-valued" trimming that keeps the degree low while the random
  additions keep the expansion high.

Every change reports the edges added/removed so NOW can charge the
corresponding inter-cluster messages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..errors import UnknownClusterError
from ..params import ProtocolParameters, log_base
from .erdos_renyi import connect_if_disconnected, erdos_renyi_overlay
from .graph import ClusterId, OverlayGraph

ChooseCluster = Callable[[ClusterId], ClusterId]


@dataclass
class OverlayChange:
    """Record of the structural changes performed by one OVER operation."""

    operation: str
    cluster_id: ClusterId
    edges_added: List[Tuple[ClusterId, ClusterId]] = field(default_factory=list)
    edges_removed: List[Tuple[ClusterId, ClusterId]] = field(default_factory=list)
    samples_used: int = 0


class OverOverlay:
    """Maintains the cluster overlay's expansion and degree bounds under churn."""

    def __init__(
        self,
        parameters: ProtocolParameters,
        rng: random.Random,
        graph: Optional[OverlayGraph] = None,
    ) -> None:
        self._parameters = parameters
        self._rng = rng
        self.graph = graph if graph is not None else OverlayGraph()

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def bootstrap(
        self, cluster_ids: Sequence[ClusterId], weights: Optional[Sequence[float]] = None
    ) -> OverlayChange:
        """Create the initial Erdős–Rényi overlay over ``cluster_ids``."""
        overlay = erdos_renyi_overlay(
            cluster_ids,
            edge_probability=self._parameters.overlay_edge_probability,
            rng=self._rng,
            weights=weights,
        )
        patch_edges = connect_if_disconnected(overlay, self._rng)
        self.graph = overlay
        change = OverlayChange(operation="bootstrap", cluster_id=-1)
        change.edges_added.extend(overlay.edges())
        change.edges_added.extend(patch_edges)
        self._regulate_degrees(change)
        return change

    # ------------------------------------------------------------------
    # Add / Remove (Figure 2)
    # ------------------------------------------------------------------
    def add_vertex(
        self,
        cluster_id: ClusterId,
        weight: float,
        choose_cluster: Optional[ChooseCluster] = None,
        anchor: Optional[ClusterId] = None,
    ) -> OverlayChange:
        """OVER's ``Add``: insert a new cluster vertex and give it a neighbourhood.

        ``choose_cluster`` is called with the new vertex id and must return an
        existing cluster (NOW passes its ``randCl`` primitive); ``anchor`` is a
        cluster guaranteed to become a neighbour (the sibling the new cluster
        split from), which keeps the overlay connected even if every random
        draw collides.
        """
        change = OverlayChange(operation="add", cluster_id=cluster_id)
        existing = list(self.graph.vertices())
        self.graph.add_vertex(cluster_id, weight)
        if not existing:
            return change
        if anchor is not None and anchor in self.graph:
            if self.graph.add_edge(cluster_id, anchor):
                change.edges_added.append((cluster_id, anchor))
        wanted = self._parameters.overlay_degree_target
        attempts = 0
        max_attempts = 4 * wanted + 8
        while self.graph.degree(cluster_id) < wanted and attempts < max_attempts:
            attempts += 1
            target = self._pick_cluster(cluster_id, existing, choose_cluster)
            change.samples_used += 1
            if target == cluster_id or target not in self.graph:
                continue
            if self.graph.add_edge(cluster_id, target):
                change.edges_added.append((cluster_id, target))
        self._regulate_degrees(change)
        return change

    def remove_vertex(
        self,
        cluster_id: ClusterId,
        choose_cluster: Optional[ChooseCluster] = None,
    ) -> OverlayChange:
        """OVER's ``Remove``: delete a cluster vertex and patch the expansion.

        After the vertex disappears, ``2 log^2 N`` replacement edges (Figure 2)
        are added between clusters chosen by ``choose_cluster`` (falling back
        to uniform), preferring pairs that include a former neighbour of the
        removed vertex so the local hole is patched first.
        """
        if cluster_id not in self.graph:
            raise UnknownClusterError(f"cluster {cluster_id} is not in the overlay")
        change = OverlayChange(operation="remove", cluster_id=cluster_id)
        former_neighbours = self.graph.remove_vertex(cluster_id)
        change.edges_removed.extend((cluster_id, other) for other in sorted(former_neighbours))
        remaining = list(self.graph.vertices())
        if len(remaining) < 2:
            return change
        log_n = log_base(self._parameters.max_size, self._parameters.log_base_value)
        replacement_target = int(round(2 * log_n * log_n))
        max_possible = len(remaining) * (len(remaining) - 1) // 2
        replacement_target = min(replacement_target, max_possible)
        attempts = 0
        added = 0
        max_attempts = 4 * replacement_target + 8
        # Sorted: ``former_neighbours`` is a set, and the pool feeds an
        # rng.randrange index — raw set order would break replay determinism.
        neighbour_pool = sorted(c for c in former_neighbours if c in self.graph)
        while added < replacement_target and attempts < max_attempts:
            attempts += 1
            if neighbour_pool:
                first = neighbour_pool[self._rng.randrange(len(neighbour_pool))]
            else:
                first = remaining[self._rng.randrange(len(remaining))]
            second = self._pick_cluster(first, remaining, choose_cluster)
            change.samples_used += 1
            if first == second:
                continue
            if self.graph.add_edge(first, second):
                change.edges_added.append((first, second))
                added += 1
        # Keep the overlay connected; a disconnected overlay would trap the CTRW.
        for first, second in connect_if_disconnected(self.graph, self._rng):
            change.edges_added.append((first, second))
        self._regulate_degrees(change)
        return change

    def update_weight(self, cluster_id: ClusterId, weight: float) -> None:
        """Propagate a cluster-size change to the walk-bias weights."""
        self.graph.set_weight(cluster_id, weight)

    # ------------------------------------------------------------------
    # Degree regulation ("over-valuation" trimming)
    # ------------------------------------------------------------------
    def _regulate_degrees(self, change: OverlayChange) -> None:
        cap = self._parameters.overlay_degree_cap
        for vertex in list(self.graph.vertices()):
            while self.graph.degree(vertex) > cap:
                neighbours = list(self.graph.neighbours(vertex))
                # Never drop an edge whose other endpoint would become isolated.
                droppable = [n for n in neighbours if self.graph.degree(n) > 1]
                if not droppable:
                    break
                victim = droppable[self._rng.randrange(len(droppable))]
                if self.graph.remove_edge(vertex, victim):
                    change.edges_removed.append((vertex, victim))
                else:  # pragma: no cover - defensive
                    break

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _pick_cluster(
        self,
        origin: ClusterId,
        candidates: Sequence[ClusterId],
        choose_cluster: Optional[ChooseCluster],
    ) -> ClusterId:
        if choose_cluster is not None:
            return choose_cluster(origin)
        pool = [c for c in candidates if c in self.graph]
        if not pool:
            return origin
        return pool[self._rng.randrange(len(pool))]
