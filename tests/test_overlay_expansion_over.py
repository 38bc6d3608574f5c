"""Unit tests for expansion measurement and the OVER maintenance protocol."""

from __future__ import annotations

import random

import pytest

from repro.errors import UnknownClusterError
from repro.overlay.erdos_renyi import erdos_renyi_overlay
from repro.overlay.expansion import (
    analyse_expansion,
    cheeger_bounds,
    spectral_gap,
    sweep_cut_isoperimetric,
)
from repro.overlay.graph import OverlayGraph
from repro.overlay.over import OverOverlay
from repro.params import ProtocolParameters


def complete_overlay(size: int) -> OverlayGraph:
    return erdos_renyi_overlay(range(size), edge_probability=1.0, rng=random.Random(0))


def path_overlay(size: int) -> OverlayGraph:
    graph = OverlayGraph()
    for index in range(size):
        graph.add_vertex(index)
    for index in range(size - 1):
        graph.add_edge(index, index + 1)
    return graph


def disconnected_overlay() -> OverlayGraph:
    graph = OverlayGraph()
    for index in range(4):
        graph.add_vertex(index)
    graph.add_edge(0, 1)
    graph.add_edge(2, 3)
    return graph


class TestExpansionMeasures:
    def test_spectral_gap_complete_graph_is_large(self):
        assert spectral_gap(complete_overlay(8)) > 0.9

    def test_spectral_gap_disconnected_is_zero(self):
        assert spectral_gap(disconnected_overlay()) == pytest.approx(0.0, abs=1e-9)

    def test_spectral_gap_path_smaller_than_complete(self):
        assert spectral_gap(path_overlay(8)) < spectral_gap(complete_overlay(8))

    def test_cheeger_bounds_order(self):
        lower, upper = cheeger_bounds(complete_overlay(8))
        assert 0.0 <= lower <= upper

    def test_sweep_cut_on_complete_graph(self):
        # Any balanced cut of K_n has expansion ~ n/2.
        value = sweep_cut_isoperimetric(complete_overlay(8))
        assert value >= 4.0 - 1e-9

    def test_sweep_cut_on_path_is_small(self):
        value = sweep_cut_isoperimetric(path_overlay(10))
        assert value <= 0.5  # cutting the middle edge: 1 / 5

    def test_sweep_cut_disconnected_is_zero(self):
        assert sweep_cut_isoperimetric(disconnected_overlay()) == 0.0

    def test_analyse_expansion_report_fields(self):
        report = analyse_expansion(complete_overlay(6))
        assert report.vertex_count == 6
        assert report.edge_count == 15
        assert report.max_degree == 5
        assert report.min_degree == 5
        assert report.connected
        assert report.meets_degree_bound(5)
        assert not report.meets_degree_bound(4)
        assert report.meets_expansion_target(1.0)

    def test_analyse_expansion_tiny_graph(self):
        graph = OverlayGraph()
        graph.add_vertex(0)
        report = analyse_expansion(graph)
        assert report.vertex_count == 1
        assert report.spectral_gap == 0.0


class TestOverOverlay:
    def params(self, max_size=1024):
        return ProtocolParameters(max_size=max_size, k=2.0, alpha=0.1, tau=0.1, epsilon=0.05)

    def build(self, cluster_count=20, seed=3):
        over = OverOverlay(self.params(), random.Random(seed))
        over.bootstrap(list(range(cluster_count)), weights=[20.0] * cluster_count)
        return over

    def test_bootstrap_connected(self):
        over = self.build()
        assert over.graph.is_connected()
        assert len(over.graph) == 20

    def test_bootstrap_respects_degree_cap(self):
        over = self.build(cluster_count=30)
        assert over.graph.max_degree() <= self.params().overlay_degree_cap

    def test_add_vertex_connects_to_target_degree(self):
        over = self.build()
        change = over.add_vertex(100, weight=20.0, anchor=0)
        assert 100 in over.graph
        assert over.graph.degree(100) >= 1
        assert change.operation == "add"
        assert all(100 in edge for edge in change.edges_added)
        assert over.graph.is_connected()

    def test_add_vertex_to_empty_overlay(self):
        over = OverOverlay(self.params(), random.Random(1))
        change = over.add_vertex(0, weight=5.0)
        assert change.edges_added == []
        assert 0 in over.graph

    def test_remove_vertex_patches_and_stays_connected(self):
        over = self.build()
        change = over.remove_vertex(5)
        assert 5 not in over.graph
        assert change.operation == "remove"
        assert over.graph.is_connected()
        # The removed vertex's edges are reported as removed.
        assert any(5 in edge for edge in change.edges_removed)

    def test_remove_unknown_vertex_raises(self):
        over = self.build()
        with pytest.raises(UnknownClusterError):
            over.remove_vertex(999)

    def test_degree_regulation_after_many_adds(self):
        over = self.build(cluster_count=10)
        for new_id in range(100, 130):
            over.add_vertex(new_id, weight=20.0, anchor=0)
        assert over.graph.max_degree() <= self.params().overlay_degree_cap

    def test_update_weight(self):
        over = self.build()
        over.update_weight(3, 55.0)
        assert over.graph.weight(3) == 55.0

    def test_long_add_remove_sequence_preserves_properties(self):
        """Property 1 & 2 style check under a churn of vertex additions/removals."""
        rng = random.Random(11)
        over = self.build(cluster_count=24, seed=11)
        next_id = 1000
        for _ in range(60):
            if rng.random() < 0.5 and len(over.graph) > 8:
                victim = rng.choice(list(over.graph.vertices()))
                over.remove_vertex(victim)
            else:
                over.add_vertex(next_id, weight=20.0, anchor=rng.choice(list(over.graph.vertices())))
                next_id += 1
        assert over.graph.is_connected()
        assert over.graph.max_degree() <= self.params().overlay_degree_cap
        report = analyse_expansion(over.graph)
        assert report.spectral_gap > 0.05
