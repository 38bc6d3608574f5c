"""The exact endpoint law of the walks the hop engine runs.

A continuous-time random walk that holds at a vertex of degree ``d`` for an
``Exp(d)`` time and then jumps to a uniformly chosen neighbour has the
combinatorial Laplacian ``L = D - A`` as its generator, so its endpoint law
after a duration ``T`` is the matrix exponential ``e^{-TL}``: row ``s`` is
the law of a walk started at ``s``.  ``L`` is symmetric on an undirected
graph, so one ``eigh`` gives it as ``V·diag(e^{-Tλ})·Vᵀ`` (the spectral form
in Aspnes' notes on random walks).

The biased walk behind ``randCl`` (paper §3.1) chains such segments and
accepts a segment's end ``j`` with probability ``a_j = w_j / max w``,
restarting from ``j`` otherwise and accepting unconditionally after
``max_restarts`` segments.  With ``P`` the segment law, ``Q = P·diag(1-a)``
and ``R = P·diag(a)``, its endpoint law is the truncated restart series
``Σ_{k=0}^{m-2} Q^k·R + Q^{m-1}·P`` for ``m = max_restarts``, truncated
walks included — the law :meth:`~repro.walks.kernel.ArrayKernel.
run_biased_batch` samples.

Nothing here draws randomness or touches an engine: these are the numbers
the sampled walks are tested against, and the residual bias of ``randCl``
against ``|C| / n`` that the paper's analysis treats as ``O(n^-c)``.  numpy
only, so :mod:`repro.walks` does not import this module.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import WalkError


def _laplacian(csr) -> np.ndarray:
    """``L = D - A`` of a layout, refusing one whose edges are not symmetric."""
    views = csr.numpy_views()
    indptr, indices = views["indptr"], views["indices"]
    count = len(csr)
    degree = np.diff(indptr)
    adjacency = np.zeros((count, count))
    np.add.at(adjacency, (np.repeat(np.arange(count), degree), indices), 1.0)
    if not np.array_equal(adjacency, adjacency.T):
        raise WalkError("the walk law needs an undirected graph; this layout is not symmetric")
    return np.diag(degree.astype(float)) - adjacency


def segment_law(csr, duration: float) -> np.ndarray:
    """``e^{-duration·L}``: row ``s`` is the endpoint law of one CTRW from row ``s``."""
    if not (math.isfinite(duration) and duration >= 0):
        raise WalkError(f"walk duration must be finite and non-negative, not {duration!r}")
    eigenvalues, vectors = np.linalg.eigh(_laplacian(csr))
    return (vectors * np.exp(-float(duration) * eigenvalues)) @ vectors.T


def biased_law(csr, segment_duration: float, max_restarts: int) -> np.ndarray:
    """Row ``s``: the endpoint law of ``run_biased_batch`` from row ``s``.

    Refuses what ``run_biased_batch`` refuses (a non-positive or non-finite
    segment, fewer than one restart, no positive weight) and, in
    :func:`segment_law`, a directed layout.
    """
    if not (math.isfinite(segment_duration) and segment_duration > 0):
        raise WalkError(
            f"segment duration must be finite and positive, not {segment_duration!r}"
        )
    if max_restarts < 1:
        raise WalkError("max_restarts must be at least 1")
    weights = csr.numpy_views()["weights"]
    max_weight = weights.max(initial=0.0)
    if max_weight <= 0:
        raise WalkError("graph has no positive vertex weight")
    segment = segment_law(csr, segment_duration)
    accept = np.clip(weights / max_weight, 0.0, 1.0)
    accepted, rejected = segment * accept, segment * (1.0 - accept)
    # Horner form of the restart series, innermost (the truncated segment) first.
    law = segment
    for _ in range(max_restarts - 1):
        law = accepted + rejected @ law
    return law


def total_variation(law: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-start total-variation distance ``½·Σ_j |law[s, j] - target[j]|``."""
    return 0.5 * np.abs(np.asarray(law) - np.asarray(target)).sum(axis=-1)
