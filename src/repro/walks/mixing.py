"""Mixing-time and distribution-distance estimation for walks.

Section 4 of the paper justifies treating ``randCl`` outputs as perfectly
distributed by choosing a walk duration after which the total-variation
distance to the target distribution is ``O(n^-c)``.  The helpers here let the
experiments *measure* that distance empirically (E10) and estimate how long a
walk must run on a given overlay before the distance drops below a threshold.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Mapping, Optional

from ..errors import WalkError
from .interface import WalkableGraph
from .kernel import ArrayKernel

Vertex = Hashable


def total_variation_distance(
    first: Mapping[Vertex, float], second: Mapping[Vertex, float]
) -> float:
    """Total-variation distance ``0.5 * sum |p(v) - q(v)|`` between two distributions."""
    support = set(first) | set(second)
    return 0.5 * sum(abs(first.get(v, 0.0) - second.get(v, 0.0)) for v in support)


def empirical_distribution(samples: Mapping[Vertex, int]) -> Dict[Vertex, float]:
    """Normalise a histogram of sample counts into a probability distribution."""
    total = sum(samples.values())
    if total <= 0:
        raise WalkError("cannot normalise an empty histogram")
    return {vertex: count / total for vertex, count in samples.items()}


def uniform_distribution(graph: WalkableGraph) -> Dict[Vertex, float]:
    """Uniform distribution over the graph's vertices."""
    vertices = list(graph.vertices())
    if not vertices:
        return {}
    probability = 1.0 / len(vertices)
    return {vertex: probability for vertex in vertices}


def empirical_endpoint_distribution(
    graph: WalkableGraph,
    rng: random.Random,
    start: Vertex,
    duration: float,
    samples: int,
) -> Dict[Vertex, float]:
    """Empirical CTRW endpoint distribution from ``samples`` independent walks."""
    histogram: Dict[Vertex, int] = {}
    for endpoint, _, _ in ArrayKernel(graph, rng).run_ctrw_batch([start] * samples, duration):
        histogram[endpoint] = histogram.get(endpoint, 0) + 1
    return empirical_distribution(histogram)


def estimate_mixing_time(
    graph: WalkableGraph,
    rng: random.Random,
    start: Vertex,
    threshold: float = 0.1,
    samples_per_duration: int = 200,
    initial_duration: float = 1.0,
    max_duration: float = 1024.0,
    target: Optional[Mapping[Vertex, float]] = None,
) -> float:
    """Smallest tested duration whose empirical TV distance drops below ``threshold``.

    The duration is doubled from ``initial_duration`` until the empirical
    total-variation distance between the endpoint distribution and ``target``
    (the uniform distribution by default — the CTRW's stationary law) falls
    below ``threshold`` or ``max_duration`` is exceeded, in which case
    ``max_duration`` is returned.  This is a Monte-Carlo estimate: with few
    samples the distance is noisy, so thresholds should not be set close to
    the sampling noise floor (roughly ``sqrt(#vertices / samples)``).
    """
    if threshold <= 0:
        raise WalkError("threshold must be positive")
    if target is None:
        target = uniform_distribution(graph)
    duration = float(initial_duration)
    while duration <= max_duration:
        empirical = empirical_endpoint_distribution(
            graph, rng, start, duration, samples_per_duration
        )
        if total_variation_distance(empirical, target) < threshold:
            return duration
        duration *= 2.0
    return float(max_duration)
