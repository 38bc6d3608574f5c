"""The walk semantics the hop engine must reproduce, one walk at a time.

A continuous-time random walk: at a vertex of degree ``d``, hold for an
``rng.expovariate(d)`` time, then jump to ``neighbours[rng.randrange(d)]``,
until the duration is spent.  The biased walk of ``randCl`` (paper §3.1)
chains such segments: at a segment's endpoint it accepts with probability
``weight / max_weight`` and otherwise restarts from there, truncating
(accepting the last endpoint) after ``max_restarts`` segments.

Two references, both written for clarity, not speed:

* :func:`reference_ctrw` / :func:`reference_biased_walk` draw from a
  ``random.Random``.  ``tests/test_walk_law.py`` holds the biased walk to
  the exact law of :mod:`repro.walks.law` (chi-square), which checks the
  law against these readable semantics; the kernel's hop paths are held to
  the same law.
* :func:`reference_biased_batch` is the kernel's scalar path written one
  walk at a time, drawing one value per call from the kernel's own
  pre-drawn buffers (:func:`next_exp` / :func:`next_uni`), refilled a block
  at a time when spent.  ``tests/test_walk_kernel.py`` holds the kernel's
  batch loop to it draw for draw: the same tuples and the same kernel
  snapshot after every batch.
"""

from __future__ import annotations

from repro.walks.kernel import _REFILL


def reference_ctrw(graph, rng, start, duration):
    """``(endpoint, hops)`` of one CTRW of ``duration`` from ``start``."""
    current, remaining, hops = start, float(duration), 0
    while remaining > 0:
        neighbours = list(graph.neighbours(current))
        if not neighbours:
            break
        holding = rng.expovariate(len(neighbours))
        if holding >= remaining:
            break
        remaining -= holding
        current = neighbours[rng.randrange(len(neighbours))]
        hops += 1
    return current, hops


def reference_biased_walk(graph, rng, start, segment_duration, max_restarts):
    """``(cluster, hops, restarts, truncated)`` of one biased walk from ``start``."""
    max_weight = graph.max_weight()
    current, hops = start, 0
    for restarts in range(1, max_restarts + 1):
        current, segment_hops = reference_ctrw(graph, rng, current, segment_duration)
        hops += segment_hops
        if rng.random() < graph.weight(current) / max_weight:
            return current, hops, restarts, False
    return current, hops, max_restarts, True


def next_exp(kernel) -> float:
    """The kernel's next unit exponential, refilling its buffer when spent."""
    if kernel._exp_cur >= len(kernel._exp_buf):
        kernel._exp_buf = kernel._generate_exp(_REFILL)
        kernel._exp_cur = 0
    kernel._exp_cur += 1
    return float(kernel._exp_buf[kernel._exp_cur - 1])


def next_uni(kernel) -> float:
    """The kernel's next uniform, refilling its buffer when spent."""
    if kernel._uni_cur >= len(kernel._uni_buf):
        kernel._uni_buf = kernel._generate_uni(_REFILL)
        kernel._uni_cur = 0
    kernel._uni_cur += 1
    return float(kernel._uni_buf[kernel._uni_cur - 1])


def _biased_walk(kernel, row, segment_duration, max_restarts, csr, max_weight):
    """``(row, hops, restarts, truncated)`` of one biased walk from ``row``."""
    indptr = csr.indptr
    indices = csr.indices
    inv_degree = csr.inv_degree
    weights = csr.weights
    hops = 0
    restarts = 0
    while True:
        restarts += 1
        remaining = segment_duration
        while True:
            base = indptr[row]
            degree = indptr[row + 1] - base
            if degree == 0:
                break
            holding = next_exp(kernel) * inv_degree[row]
            if holding >= remaining:
                break
            remaining -= holding
            offset = int(next_uni(kernel) * degree)
            if offset >= degree:
                offset = degree - 1
            row = indices[base + offset]
            hops += 1
        if next_uni(kernel) * max_weight < weights[row]:
            return (row, hops, restarts, False)
        if restarts >= max_restarts:
            return (row, hops, restarts, True)


def reference_biased_batch(kernel, starts, segment_duration, max_restarts):
    """``kernel.run_biased_batch(...)``, one walk at a time."""
    csr = kernel._graph.csr()
    max_weight = kernel._graph.max_weight()
    out = []
    for start in starts:
        row, hops, restarts, truncated = _biased_walk(
            kernel, csr.row_of(start), float(segment_duration), max_restarts, csr, max_weight
        )
        out.append((csr.vertices[row], hops, restarts, restarts, truncated))
    return out
