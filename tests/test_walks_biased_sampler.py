"""Unit tests for the biased CTRW (on the hop engine) and the cluster sampler."""

from __future__ import annotations

import random

import pytest

from repro.errors import WalkError
from repro.walks.interface import MappingGraph
from repro.walks.kernel import ArrayKernel
from repro.walks.sampler import ClusterSampler, WalkMode


def weighted_cycle(size: int, heavy_vertex: int = 0, heavy_weight: float = 4.0) -> MappingGraph:
    adjacency = {i: [(i - 1) % size, (i + 1) % size] for i in range(size)}
    weights = {i: (heavy_weight if i == heavy_vertex else 1.0) for i in range(size)}
    return MappingGraph(adjacency, weights)


def biased(graph, seed: int, start, segment_duration: float, max_restarts: int = 64):
    """One biased walk on a fresh kernel: ``(cluster, hops, restarts, tests, truncated)``."""
    kernel = ArrayKernel(graph, random.Random(seed))
    return kernel.run_biased_batch([start], segment_duration, max_restarts)[0]


class TestBiasedWalk:
    def test_rejects_bad_parameters(self):
        graph = weighted_cycle(4)
        with pytest.raises(WalkError):
            biased(graph, 0, 0, segment_duration=0.0)
        with pytest.raises(WalkError):
            biased(graph, 0, 0, segment_duration=1.0, max_restarts=0)

    def test_unknown_start_rejected(self):
        with pytest.raises(WalkError):
            biased(weighted_cycle(4), 0, 99, segment_duration=1.0)

    def test_outcome_bookkeeping(self):
        graph = weighted_cycle(6)
        cluster, hops, restarts, acceptance_tests, _ = biased(graph, 5, 0, segment_duration=4.0)
        assert restarts >= 1
        assert acceptance_tests == restarts
        assert hops >= 0
        assert cluster in graph.vertices()

    def test_truncation_flag_when_cap_hit(self):
        """With max_restarts=1 and a tiny acceptance probability the walk truncates."""
        adjacency = {0: [1], 1: [0]}
        weights = {0: 1.0, 1: 1000.0}
        graph = MappingGraph(adjacency, weights)
        kernel = ArrayKernel(graph, random.Random(3))
        outcomes = kernel.run_biased_batch([0] * 50, segment_duration=1.0, max_restarts=1)
        truncated = [outcome for outcome in outcomes if outcome[4]]
        assert truncated
        assert all(restarts == 1 for _, _, restarts, _, _ in truncated)

    def test_endpoint_distribution_proportional_to_weight(self):
        """The accepted endpoint follows |C| / n, the paper's target distribution."""
        graph = weighted_cycle(5, heavy_vertex=2, heavy_weight=3.0)
        kernel = ArrayKernel(graph, random.Random(17))
        counts = {}
        samples = 3000
        for cluster, _, _, _, _ in kernel.run_biased_batch([0] * samples, 30.0, 64):
            counts[cluster] = counts.get(cluster, 0) + 1
        total_weight = graph.total_weight()
        for vertex in graph.vertices():
            expected = graph.weight(vertex) / total_weight
            observed = counts.get(vertex, 0) / samples
            assert observed == pytest.approx(expected, abs=0.05)


class TestClusterSampler:
    def test_simulated_and_oracle_modes_agree_in_distribution(self):
        graph = weighted_cycle(5, heavy_vertex=1, heavy_weight=4.0)
        simulated = ClusterSampler(
            graph, random.Random(3), segment_duration=25.0, mode=WalkMode.SIMULATED
        )
        oracle = ClusterSampler(
            graph, random.Random(4), segment_duration=25.0, mode=WalkMode.ORACLE
        )
        samples = 1500
        counts_sim = {}
        counts_ora = {}
        for _ in range(samples):
            sim_cluster = simulated.sample(0).cluster
            ora_cluster = oracle.sample(0).cluster
            counts_sim[sim_cluster] = counts_sim.get(sim_cluster, 0) + 1
            counts_ora[ora_cluster] = counts_ora.get(ora_cluster, 0) + 1
        for vertex in graph.vertices():
            sim_fraction = counts_sim.get(vertex, 0) / samples
            ora_fraction = counts_ora.get(vertex, 0) / samples
            assert sim_fraction == pytest.approx(ora_fraction, abs=0.07)

    def test_oracle_mode_reports_positive_effort(self):
        graph = weighted_cycle(5)
        sampler = ClusterSampler(
            graph, random.Random(3), segment_duration=10.0, mode=WalkMode.ORACLE
        )
        outcome = sampler.sample(0)
        assert outcome.hops >= 1
        assert outcome.restarts >= 1
        assert outcome.mode is WalkMode.ORACLE

    def test_simulated_mode_flag(self):
        graph = weighted_cycle(5)
        sampler = ClusterSampler(
            graph, random.Random(3), segment_duration=5.0, mode=WalkMode.SIMULATED
        )
        assert sampler.sample(0).mode is WalkMode.SIMULATED

    def test_oracle_rejects_empty_graph(self):
        graph = MappingGraph({})
        sampler = ClusterSampler(
            graph, random.Random(3), segment_duration=5.0, mode=WalkMode.ORACLE
        )
        with pytest.raises(WalkError):
            sampler.sample(0)
