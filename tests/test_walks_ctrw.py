"""Unit tests for the continuous random walk, run on the hop engine.

The engine runs one walk, the biased one; over equal weights with a single
segment (``max_restarts=1``) every endpoint is accepted, so a biased walk
is one plain CTRW segment.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import WalkError
from repro.walks.interface import MappingGraph
from repro.walks.kernel import ArrayKernel


def cycle_graph(size: int, weights=None) -> MappingGraph:
    adjacency = {i: [(i - 1) % size, (i + 1) % size] for i in range(size)}
    return MappingGraph(adjacency, weights)


def star_graph(leaves: int) -> MappingGraph:
    adjacency = {0: list(range(1, leaves + 1))}
    for leaf in range(1, leaves + 1):
        adjacency[leaf] = [0]
    return MappingGraph(adjacency)


def segments(kernel, starts, duration: float) -> list:
    """One CTRW segment from each start: ``(endpoint, hops)``."""
    return [out[:2] for out in kernel.run_biased_batch(starts, duration, 1)]


def walk(graph, seed: int, start, duration: float) -> tuple:
    """One CTRW segment on a fresh kernel: ``(endpoint, hops)``."""
    return segments(ArrayKernel(graph, random.Random(seed)), [start], duration)[0]


class TestMappingGraph:
    def test_default_weights_are_one(self):
        graph = cycle_graph(4)
        assert graph.weight(2) == 1.0
        assert graph.total_weight() == 4.0

    def test_missing_weights_rejected(self):
        with pytest.raises(ValueError):
            MappingGraph({0: [1], 1: [0]}, weights={0: 1.0})

    def test_target_distribution_normalised(self):
        graph = cycle_graph(4, weights={0: 1, 1: 1, 2: 1, 3: 5})
        distribution = graph.target_distribution()
        assert sum(distribution.values()) == pytest.approx(1.0)
        assert distribution[3] == pytest.approx(5 / 8)

    def test_degree_and_counts(self):
        graph = star_graph(5)
        assert graph.degree(0) == 5
        assert graph.degree(3) == 1
        assert graph.vertex_count() == 6
        assert graph.max_weight() == 1.0


class TestContinuousWalk:
    def test_negative_duration_rejected(self):
        with pytest.raises(WalkError):
            walk(cycle_graph(5), 1, 0, duration=-1.0)

    def test_unknown_start_rejected(self):
        with pytest.raises(WalkError):
            walk(cycle_graph(5), 1, 99, duration=1.0)

    def test_isolated_vertex_never_moves(self):
        graph = MappingGraph({0: [], 1: [2], 2: [1]})
        kernel = ArrayKernel(graph, random.Random(1))
        (isolated, connected) = segments(kernel, [0, 1], duration=10.0)
        assert isolated == (0, 0)
        assert connected[1] > 0

    def test_hops_grow_with_duration(self):
        kernel = ArrayKernel(cycle_graph(8), random.Random(7))
        short = sum(hops for _, hops in segments(kernel, [0] * 50, 1.0))
        long = sum(hops for _, hops in segments(kernel, [0] * 50, 10.0))
        assert long > short

    def test_stationary_distribution_is_uniform_on_irregular_graph(self):
        """The CTRW endpoint distribution approaches uniform even on a star.

        This is the reason the paper uses continuous (rather than
        discrete-time) walks: the discrete walk on a star spends half its
        time at the hub, the continuous one is uniform.
        """
        graph = star_graph(4)  # hub degree 4, leaves degree 1 -- very irregular
        samples = 2000
        kernel = ArrayKernel(graph, random.Random(11))
        counts = {vertex: 0 for vertex in graph.vertices()}
        for endpoint, _ in segments(kernel, [0] * samples, 50.0):
            counts[endpoint] += 1
        for vertex in graph.vertices():
            assert counts[vertex] / samples == pytest.approx(1.0 / 5.0, abs=0.06)
