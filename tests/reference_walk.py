"""The walk semantics the hop engine must reproduce, one walk at a time.

A continuous-time random walk: at a vertex of degree ``d``, hold for an
``rng.expovariate(d)`` time, then jump to ``neighbours[rng.randrange(d)]``,
until the duration is spent.  The biased walk of ``randCl`` (paper §3.1)
chains such segments: at a segment's endpoint it accepts with probability
``weight / max_weight`` and otherwise restarts from there, truncating
(accepting the last endpoint) after ``max_restarts`` segments.

Written for clarity, not speed: the kernel suites hold both
:class:`~repro.walks.kernel.ArrayKernel` hop paths (scalar and vector) to
these two functions in distribution (chi-square), not draw for draw — the
kernel consumes its own stream in bulk.
"""

from __future__ import annotations


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
