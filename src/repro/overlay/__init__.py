"""OVER: the expander overlay of clusters.

The vertices of the overlay are the clusters maintained by NOW (each of which
is "honest" as a unit as long as it contains more than two thirds of honest
nodes), and an edge between two clusters means every node of one is linked to
and knows every node of the other.  OVER keeps this overlay:

* an **expander** — isoperimetric constant at least ``log^(1+alpha) N / 2``
  (Property 1), which makes the biased CTRW mix in polylogarithmically many
  hops, and
* **sparse** — maximum degree at most ``c log^(1+alpha) N`` (Property 2), so
  inter-cluster updates cost polylog messages.

The detailed OVER algorithms live in the paper's long version, which is not
available; :mod:`repro.overlay.over` reconstructs them from the short paper
(Erdős–Rényi bootstrap with ``p = log^(1+alpha) N / sqrt N``, ``Add`` /
``Remove`` of vertices with randomly chosen replacement edges, degree
regulation) — see the design notes in docs/ARCHITECTURE.md for the substitution.  The expansion and
degree targets are verified empirically by experiment E4, through
:mod:`repro.overlay.expansion`; that module computes with numpy, so this
package does not import it.
"""

from .graph import OverlayGraph
from .erdos_renyi import erdos_renyi_overlay, connect_if_disconnected
from .over import OverOverlay, OverlayChange

__all__ = [
    "OverlayGraph",
    "erdos_renyi_overlay",
    "connect_if_disconnected",
    "OverOverlay",
    "OverlayChange",
]
