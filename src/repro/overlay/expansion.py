"""Expansion measurement: spectral gap, Cheeger bounds, sweep cuts.

Property 1 of the paper requires the overlay's isoperimetric constant

    I(G) = min_{S, |S| <= n/2}  |E(S, S-bar)| / |S|

to stay at least ``log^(1+alpha) N / 2``.  Computing ``I(G)`` exactly is
NP-hard, so — as is standard — we bound it two ways:

* **Spectral**: the Cheeger inequalities relate ``I(G)`` to the spectral gap
  ``lambda_2`` of the normalised Laplacian:
  ``lambda_2 / 2 * d_min <= I(G)`` and ``I(G) <= sqrt(2 * lambda_2) * d_max``
  (in the edge-expansion normalisation used by the paper).
* **Sweep cut**: a Fiedler-vector sweep produces an explicit cut whose
  expansion upper-bounds ``I(G)`` and is usually close to it.

Experiment E4 reports all three numbers against the paper's target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .graph import ClusterId, OverlayGraph


@dataclass(frozen=True)
class ExpansionReport:
    """Summary of an overlay's expansion and degree profile."""

    vertex_count: int
    edge_count: int
    max_degree: int
    min_degree: int
    average_degree: float
    spectral_gap: float
    cheeger_lower: float
    cheeger_upper: float
    sweep_cut_expansion: float
    connected: bool

    def meets_degree_bound(self, degree_cap: int) -> bool:
        """Whether the maximum degree respects ``c log^(1+alpha) N``."""
        return self.max_degree <= degree_cap

    def meets_expansion_target(self, target: float) -> bool:
        """Whether the *witnessed* expansion (sweep cut) reaches ``target``.

        The sweep-cut value is an upper bound on the true isoperimetric
        constant, so this check is necessary but not sufficient; combined
        with the spectral lower bound it brackets the truth.
        """
        return self.sweep_cut_expansion >= target


def _index_vertices(overlay: OverlayGraph) -> Tuple[List[ClusterId], Dict[ClusterId, int]]:
    vertices = sorted(overlay.vertices())
    return vertices, {vertex: index for index, vertex in enumerate(vertices)}


def adjacency_matrix(overlay: OverlayGraph) -> np.ndarray:
    """Dense 0/1 adjacency matrix in sorted-vertex order."""
    vertices, index = _index_vertices(overlay)
    size = len(vertices)
    matrix = np.zeros((size, size))
    for first, second in overlay.edges():
        matrix[index[first], index[second]] = 1.0
        matrix[index[second], index[first]] = 1.0
    return matrix


def normalized_laplacian(overlay: OverlayGraph) -> np.ndarray:
    """Symmetric normalised Laplacian ``I - D^{-1/2} A D^{-1/2}``."""
    adjacency = adjacency_matrix(overlay)
    degrees = adjacency.sum(axis=1)
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1e-12)), 0.0)
    scaling = np.diag(inv_sqrt)
    identity = np.eye(adjacency.shape[0])
    return identity - scaling @ adjacency @ scaling


def spectral_gap(overlay: OverlayGraph) -> float:
    """Second-smallest eigenvalue of the normalised Laplacian (0 if < 2 vertices)."""
    if len(overlay) < 2:
        return 0.0
    laplacian = normalized_laplacian(overlay)
    eigenvalues = np.linalg.eigvalsh(laplacian)
    eigenvalues.sort()
    return float(max(0.0, eigenvalues[1]))


def cheeger_bounds(overlay: OverlayGraph) -> Tuple[float, float]:
    """Lower and upper bounds on the edge-expansion isoperimetric constant.

    Uses the discrete Cheeger inequality for the *conductance*
    ``lambda_2 / 2 <= phi <= sqrt(2 lambda_2)`` and converts conductance to
    edge expansion via the minimum/maximum degree:
    ``phi * d_min <= I(G) <= phi_upper * d_max``.
    """
    if len(overlay) < 2:
        return (0.0, 0.0)
    gap = spectral_gap(overlay)
    degrees = [overlay.degree(vertex) for vertex in overlay.vertices()]
    d_min = min(degrees) if degrees else 0
    d_max = max(degrees) if degrees else 0
    lower = (gap / 2.0) * d_min
    upper = math.sqrt(max(0.0, 2.0 * gap)) * d_max
    return (float(lower), float(upper))


def sweep_cut_isoperimetric(overlay: OverlayGraph) -> float:
    """Best (smallest) expansion value found by a Fiedler-vector sweep.

    Returns ``inf`` for graphs with fewer than two vertices and ``0.0`` for
    disconnected graphs (which indeed have expansion 0).
    """
    size = len(overlay)
    if size < 2:
        return float("inf")
    if not overlay.is_connected():
        return 0.0
    vertices, index = _index_vertices(overlay)
    laplacian = normalized_laplacian(overlay)
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    order = np.argsort(eigenvalues)
    fiedler = eigenvectors[:, order[1]]
    ranked = sorted(range(size), key=lambda position: fiedler[position])

    adjacency = adjacency_matrix(overlay)
    in_set = np.zeros(size, dtype=bool)
    boundary = 0.0
    best = float("inf")
    for count, position in enumerate(ranked[:-1], start=1):
        # Moving `position` into S changes the cut by (edges to outside) - (edges to inside).
        row = adjacency[position]
        to_inside = float(row[in_set].sum())
        to_outside = float(row[~in_set].sum()) - row[position]
        in_set[position] = True
        boundary += to_outside - to_inside
        set_size = min(count, size - count)
        if set_size <= 0:
            continue
        if count <= size // 2:
            best = min(best, boundary / count)
        else:
            best = min(best, boundary / (size - count))
    return float(max(0.0, best))


def analyse_expansion(overlay: OverlayGraph) -> ExpansionReport:
    """Produce a full :class:`ExpansionReport` for ``overlay``."""
    vertices = list(overlay.vertices())
    degrees = [overlay.degree(vertex) for vertex in vertices]
    gap = spectral_gap(overlay)
    lower, upper = cheeger_bounds(overlay)
    sweep = sweep_cut_isoperimetric(overlay) if len(vertices) >= 2 else 0.0
    return ExpansionReport(
        vertex_count=len(vertices),
        edge_count=overlay.edge_count(),
        max_degree=max(degrees) if degrees else 0,
        min_degree=min(degrees) if degrees else 0,
        average_degree=(sum(degrees) / len(degrees)) if degrees else 0.0,
        spectral_gap=gap,
        cheeger_lower=lower,
        cheeger_upper=upper,
        sweep_cut_expansion=sweep if math.isfinite(sweep) else 0.0,
        connected=overlay.is_connected(),
    )
