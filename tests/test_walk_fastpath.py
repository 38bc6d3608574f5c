"""Property tests for the walk fast path (cached transition tables).

Two families of guarantees:

* **Structural exactness** (hypothesis): under arbitrary churn sequences —
  vertex add/remove, edge add/remove, weight updates — the overlay's cached
  neighbour tables and cumulative-weight table stay byte-for-byte consistent
  with a naively recomputed view, and the cached weighted draw selects the
  *same* vertex as the naive rebuild-per-draw implementation for the same
  RNG stream.

* **Distributional equivalence** (chi-square): fast-path sampling — the
  cached-table oracle draw and the batched hop engine — is statistically
  indistinguishable from the per-hop reference walk (``reference_walk``)
  and from the analytic target distributions, including after overlay
  mutations.

The chi-square critical values (``repro.analysis.statistics.
chi_square_critical``) use the Wilson–Hilferty approximation at a
conservative significance (p ≈ 0.001) so the randomised tests stay stable
under fixed seeds.
"""

from __future__ import annotations

import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.statistics import chi_square_critical
from repro.overlay.graph import OverlayGraph
from repro.walks.interface import MappingGraph
from repro.walks.kernel import ArrayKernel
from repro.walks.sampler import ClusterSampler, WalkMode

from reference_walk import reference_ctrw


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def chi_square_statistic(counts, expected) -> float:
    """Goodness-of-fit statistic over aligned count/expectation sequences."""
    statistic = 0.0
    for observed, expect in zip(counts, expected):
        if expect > 0:
            statistic += (observed - expect) ** 2 / expect
    return statistic


def naive_weighted_draw(graph: OverlayGraph, rng: random.Random):
    """The pre-cache oracle draw: rebuild the table, one rng.random() pick."""
    vertices = list(graph.vertices())
    cumulative = []
    total = 0.0
    for vertex in vertices:
        total += max(0.0, graph.weight(vertex))
        cumulative.append(total)
    index = bisect.bisect_right(cumulative, rng.random() * total, 0, len(cumulative) - 1)
    return vertices[index]


def apply_operations(graph: OverlayGraph, operations, rng: random.Random) -> None:
    """Apply a generated churn sequence, skipping structurally invalid ops."""
    next_vertex = max((v for v in graph.vertices()), default=0) + 1
    for kind, a, b in operations:
        vertices = list(graph.vertices())
        if kind == "add_vertex":
            graph.add_vertex(next_vertex, weight=1.0 + (a % 7))
            next_vertex += 1
        elif kind == "remove_vertex" and len(vertices) > 2:
            graph.remove_vertex(vertices[a % len(vertices)])
        elif kind == "add_edge" and len(vertices) >= 2:
            graph.add_edge(vertices[a % len(vertices)], vertices[b % len(vertices)])
        elif kind == "remove_edge" and len(vertices) >= 2:
            graph.remove_edge(vertices[a % len(vertices)], vertices[b % len(vertices)])
        elif kind == "set_weight" and vertices:
            graph.set_weight(vertices[a % len(vertices)], 0.5 + (b % 9))


def seeded_overlay(vertices: int = 6, seed: int = 5) -> OverlayGraph:
    rng = random.Random(seed)
    graph = OverlayGraph()
    for vertex in range(vertices):
        graph.add_vertex(vertex, weight=1.0 + rng.randrange(5))
    for vertex in range(vertices):
        graph.add_edge(vertex, (vertex + 1) % vertices)
        if rng.random() < 0.5:
            graph.add_edge(vertex, rng.randrange(vertices))
    return graph


OPERATION = st.tuples(
    st.sampled_from(["add_vertex", "remove_vertex", "add_edge", "remove_edge", "set_weight"]),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
)


# ----------------------------------------------------------------------
# Structural exactness under churn (hypothesis)
# ----------------------------------------------------------------------
class TestCacheInvalidation:
    @settings(max_examples=60, deadline=None)
    @given(operations=st.lists(OPERATION, max_size=25), seed=st.integers(0, 2**16))
    def test_tables_match_naive_view_under_churn(self, operations, seed):
        """Cached tables agree exactly with fresh recomputation after any churn."""
        graph = seeded_overlay(seed=seed % 13)
        apply_operations(graph, operations, random.Random(seed))

        def neighbour_sum(vertex):
            layout = graph.csr()
            return layout.neighbour_weight_sums()[layout.row_of(vertex)]

        for vertex in graph.vertices():
            assert graph.has_vertex(vertex)
            assert neighbour_sum(vertex) == pytest.approx(
                sum(graph.weight(other) for other in graph.neighbours(vertex))
            )
            assert graph.degree(vertex) == len(graph.neighbours(vertex))
        assert not graph.has_vertex(-1)
        # A second read must serve the (now cached) identical answer.
        for vertex in graph.vertices():
            assert neighbour_sum(vertex) == pytest.approx(
                sum(graph.weight(other) for other in graph.neighbours(vertex))
            )

    @settings(max_examples=60, deadline=None)
    @given(operations=st.lists(OPERATION, max_size=25), seed=st.integers(0, 2**16))
    def test_cached_draw_equals_naive_draw_under_churn(self, operations, seed):
        """Same RNG stream => cached and naive weighted draws pick the same vertex."""
        graph = seeded_overlay(seed=seed % 13)
        rng = random.Random(seed)
        for index in range(len(operations) + 1):
            state = rng.getstate()
            fast = graph.sample_weighted_vertex(rng)
            rng.setstate(state)
            assert fast == naive_weighted_draw(graph, rng)
            if index < len(operations):
                apply_operations(graph, [operations[index]], rng)

    def test_interleaved_sampling_and_mutation(self):
        """A long alternating sample/mutate stream never serves a stale table."""
        graph = seeded_overlay(vertices=8, seed=3)
        rng = random.Random(17)
        shadow = random.Random(17)
        for step in range(300):
            assert graph.sample_weighted_vertex(rng) == naive_weighted_draw(graph, shadow)
            vertices = list(graph.vertices())
            choice = step % 4
            if choice == 0:
                graph.set_weight(vertices[step % len(vertices)], 1.0 + step % 11)
            elif choice == 1:
                graph.add_edge(vertices[step % len(vertices)], vertices[(step * 7) % len(vertices)])
            elif choice == 2:
                graph.remove_edge(vertices[step % len(vertices)], vertices[(step * 5) % len(vertices)])
            elif len(vertices) < 12:
                graph.add_vertex(100 + step, weight=2.0)
                graph.add_edge(100 + step, vertices[0])


# ----------------------------------------------------------------------
# Distributional equivalence (chi-square)
# ----------------------------------------------------------------------
class TestDistributionEquivalence:
    def test_oracle_draws_match_target_distribution(self):
        """Cached-table oracle sampling is chi-square-consistent with |C|/n."""
        graph = seeded_overlay(vertices=7, seed=11)
        rng = random.Random(23)
        sampler = ClusterSampler(graph, rng, segment_duration=4.0, mode=WalkMode.ORACLE)
        samples = 6000
        counts = {vertex: 0 for vertex in graph.vertices()}
        for _ in range(samples):
            counts[sampler.sample(0).cluster] += 1
        target = graph.target_distribution()
        statistic = chi_square_statistic(
            [counts[v] for v in sorted(counts)],
            [samples * target[v] for v in sorted(counts)],
        )
        assert statistic < chi_square_critical(len(counts) - 1)

    def test_oracle_draws_match_target_after_mutations(self):
        """The same chi-square holds after weight/edge churn invalidates tables."""
        graph = seeded_overlay(vertices=7, seed=11)
        rng = random.Random(29)
        sampler = ClusterSampler(graph, rng, segment_duration=4.0, mode=WalkMode.ORACLE)
        for _ in range(500):  # warm the caches, then churn
            sampler.sample(0)
        graph.set_weight(2, 9.0)
        graph.add_vertex(50, weight=4.0)
        graph.add_edge(50, 0)
        graph.remove_edge(0, 1)
        samples = 6000
        counts = {vertex: 0 for vertex in graph.vertices()}
        for _ in range(samples):
            counts[sampler.sample(0).cluster] += 1
        target = graph.target_distribution()
        statistic = chi_square_statistic(
            [counts[v] for v in sorted(counts)],
            [samples * target[v] for v in sorted(counts)],
        )
        assert statistic < chi_square_critical(len(counts) - 1)

    def test_batched_walks_match_plain_walks(self):
        """Hop-engine endpoints are chi-square-indistinguishable from per-hop walks.

        Two-sample chi-square over the endpoint histograms of one kernel
        batch (bulk exponentials) and the plain per-hop reference walk on the
        same graph — a :class:`MappingGraph`, i.e. the default CSR path.
        """
        adjacency = {i: [(i - 1) % 6, (i + 1) % 6] for i in range(6)}
        adjacency[0].append(3)
        adjacency[3].append(0)
        graph = MappingGraph(adjacency)
        samples = 4000
        duration = 6.0
        plain_rng = random.Random(101)
        plain_counts = {v: 0 for v in graph.vertices()}
        for _ in range(samples):
            plain_counts[reference_ctrw(graph, plain_rng, 0, duration)[0]] += 1
        kernel = ArrayKernel(graph, random.Random(202))
        batched_counts = {v: 0 for v in graph.vertices()}
        # Equal weights and one segment: a biased walk is one plain CTRW.
        for endpoint, *_ in kernel.run_biased_batch([0] * samples, duration, 1):
            batched_counts[endpoint] += 1
        statistic = 0.0
        for vertex in graph.vertices():
            first, second = plain_counts[vertex], batched_counts[vertex]
            if first + second:
                statistic += (first - second) ** 2 / (first + second)
        assert statistic < chi_square_critical(len(plain_counts) - 1)

    def test_biased_walk_on_overlay_matches_target(self):
        """One-at-a-time simulated samples (scalar path) target |C|/n on the overlay."""
        graph = seeded_overlay(vertices=6, seed=7)
        sampler = ClusterSampler(graph, random.Random(31), segment_duration=25.0)
        samples = 4000
        counts = {vertex: 0 for vertex in graph.vertices()}
        for _ in range(samples):
            counts[sampler.sample(0).cluster] += 1
        target = graph.target_distribution()
        statistic = chi_square_statistic(
            [counts[v] for v in sorted(counts)],
            [samples * target[v] for v in sorted(counts)],
        )
        assert statistic < chi_square_critical(len(counts) - 1)
