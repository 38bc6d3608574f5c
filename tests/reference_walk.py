"""The walk semantics the hop engine must reproduce, one walk at a time.

A continuous-time random walk: at a vertex of degree ``d``, hold for an
``rng.expovariate(d)`` time, then jump to ``neighbours[rng.randrange(d)]``,
until the duration is spent.  The biased walk of ``randCl`` (paper §3.1)
chains such segments: at a segment's endpoint it accepts with probability
``weight / max_weight`` and otherwise restarts from there, truncating
(accepting the last endpoint) after ``max_restarts`` segments.

This is the CTRW's readable definition, written for clarity, not speed:
:func:`reference_ctrw` / :func:`reference_biased_walk` draw from a
``random.Random`` on the exponential clock.  ``tests/test_walk_law.py``
holds the biased walk to the exact law of :mod:`repro.walks.law`
(chi-square), which checks the law against these semantics; the kernel,
which runs the walk uniformized, is held to the same law on both of its
executors, and ``tests/test_walk_kernel.py`` compares its per-walk hop and
restart counts with this walk's (two-sample chi-square).
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
