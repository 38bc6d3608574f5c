"""CSR invalidation contract tests for :class:`OverlayGraph`.

The walk fast path is served from one shared :class:`CSRLayout` snapshot
(``docs/ARCHITECTURE.md``, "CSR layout and invalidation").  Two properties
carry the whole contract:

* every *effective* mutation — vertex/edge add/remove, weight update —
  bumps ``version``, so walk-side caches keyed on ``(graph id, version)``
  can never serve a stale answer;
* after any mutation sequence, the incrementally maintained snapshot is
  field-for-field identical to a from-scratch :meth:`CSRLayout.build` of
  the same graph (hypothesis stateful test below drives this through
  arbitrary interleavings).

Weight updates must additionally be *in place*: the snapshot object
survives ``set_weight`` (its neighbour sums and its cumulative rows, float
and integer, are patched by the weight's delta while every weight is whole,
and the hop engine's walk tables are kept), while any structural
mutation discards it wholesale.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.errors import WalkError
from repro.overlay.graph import OverlayGraph
from repro.walks.csr import CSRLayout
from repro.walks.interface import MappingGraph
from repro.walks.kernel import TABLE_CAP, ArrayKernel, _TickTables

from test_walk_fastpath import OPERATION, apply_operations, seeded_overlay


def assert_csr_matches_fresh_build(graph: OverlayGraph) -> None:
    """The maintained snapshot equals a from-scratch flatten, field by field."""
    maintained = graph.csr()
    fresh = CSRLayout.build(graph)
    assert maintained.vertices == fresh.vertices
    assert list(maintained.indptr) == list(fresh.indptr)
    assert list(maintained.indices) == list(fresh.indices)
    assert list(maintained.weights) == list(fresh.weights)
    assert list(maintained.cum_weights()) == list(fresh.cum_weights())
    assert list(maintained.neighbour_weight_sums()) == list(fresh.neighbour_weight_sums())
    assert_population_matches(maintained, fresh)
    for vertex in graph.vertices():
        row = maintained.row_of(vertex)
        neighbour_rows = maintained.indices[maintained.indptr[row] : maintained.indptr[row + 1]]
        assert [maintained.vertices[other] for other in neighbour_rows] == graph.neighbours(vertex)
        assert maintained.neighbour_weight_sums()[maintained.row_of(vertex)] == pytest.approx(
            sum(graph.weight(neighbour) for neighbour in graph.neighbours(vertex))
        )


def assert_population_matches(maintained: CSRLayout, fresh: CSRLayout) -> None:
    """The maintained integer units equal a fresh build's, or both refuse a
    fractional weight."""
    if all(weight.is_integer() or weight <= 0.0 for weight in fresh.weights):
        assert maintained.population() == fresh.population()
    else:
        with pytest.raises(WalkError, match="whole number"):
            fresh.population()
        with pytest.raises(WalkError, match="whole number"):
            maintained.population()


def assert_walk_tables_match(layout: CSRLayout) -> None:
    """The hop engine's tables hold the uniformized chain of the layout's
    rows: one tick at row ``v`` with slot ``s`` moves to neighbour ``s`` when
    ``s`` is below the degree and stays otherwise, and an ``r``-tick code
    names its ticks' slots in base ``Λ``, the first tick the most
    significant digit."""
    tables = _TickTables(layout)
    indptr, indices = layout.indptr, layout.indices
    lam, k, size = tables.lam, tables.k, tables.size
    assert lam == max([1] + [b - a for a, b in zip(indptr, indptr[1:])])
    assert size == lam**k and (k == 1 or len(layout) * size <= TABLE_CAP)

    def walk(row, code, ticks):
        hops = 0
        for tick in reversed(range(ticks)):
            slot = code // lam**tick % lam
            if slot < indptr[row + 1] - indptr[row]:
                row, hops = indices[indptr[row] + slot], hops + 1
        return row, hops

    picks = random.Random(len(layout))
    for row in range(len(layout)):
        for code in [picks.randrange(size) for _ in range(4)]:
            i = row * size + code
            landed, hops = walk(row, code, k)
            assert (tables.step[i], tables.hops[i]) == (landed * size, hops)
        for ticks in range(k):
            for code in [picks.randrange(lam**ticks) for _ in range(2)]:
                i = tables.rest_base[ticks] + row * lam**ticks + code
                assert (tables.rest_next[i], tables.rest_hops[i]) == walk(row, code, ticks)
    assert tables.step == tables.step_np.tolist()
    assert tables.rest_next == tables.rest_next_np.tolist()


class TestVersionBumps:
    """Every effective mutation path bumps ``version`` exactly once."""

    def test_add_vertex_bumps(self):
        graph = seeded_overlay()
        before = graph.version
        graph.add_vertex(99, weight=2.0)
        assert graph.version == before + 1

    def test_remove_vertex_bumps(self):
        graph = seeded_overlay()
        before = graph.version
        graph.remove_vertex(0)
        assert graph.version == before + 1

    def test_add_edge_bumps_only_when_effective(self):
        graph = seeded_overlay()
        graph.remove_edge(0, 1)
        before = graph.version
        assert graph.add_edge(0, 1) is True
        assert graph.version == before + 1
        before = graph.version
        assert graph.add_edge(0, 1) is False  # already present: no-op
        assert graph.add_edge(0, 0) is False  # loop: no-op
        assert graph.version == before

    def test_remove_edge_bumps_only_when_effective(self):
        graph = seeded_overlay()
        graph.add_edge(0, 1)
        before = graph.version
        assert graph.remove_edge(0, 1) is True
        assert graph.version == before + 1
        before = graph.version
        assert graph.remove_edge(0, 1) is False  # already absent: no-op
        assert graph.version == before

    def test_set_weight_bumps(self):
        graph = seeded_overlay()
        before = graph.version
        graph.set_weight(0, 7.5)
        assert graph.version == before + 1

    @settings(max_examples=50, deadline=None)
    @given(operations=st.lists(OPERATION, min_size=1, max_size=20), seed=st.integers(0, 2**16))
    def test_version_is_monotone_under_churn(self, operations, seed):
        graph = seeded_overlay(seed=seed % 13)
        history = [graph.version]
        for operation in operations:
            apply_operations(graph, [operation], random.Random(seed))
            history.append(graph.version)
        assert history == sorted(history)


class TestSnapshotLifecycle:
    def test_structural_mutation_discards_snapshot(self):
        graph = seeded_overlay()
        first = graph.csr()
        graph.add_edge(0, 3)
        second = graph.csr()
        assert second is not first
        assert second.structure_version != first.structure_version
        assert_csr_matches_fresh_build(graph)

    def test_set_weight_patches_snapshot_in_place(self):
        graph = seeded_overlay()
        snapshot = graph.csr()
        old_cum = list(snapshot.cum_weights())
        graph.set_weight(2, 42.0)
        assert graph.csr() is snapshot  # same object: O(1) patch, no rebuild
        assert snapshot.weights[snapshot.row_of(2)] == 42.0
        assert snapshot.weights_version == graph.version
        assert list(snapshot.cum_weights()) != old_cum  # cumulative row re-derived
        assert_csr_matches_fresh_build(graph)

    def test_set_weight_patches_neighbour_sums(self):
        """A whole-number weight change is added to the built neighbour sums
        in place (no O(E) rebuild), and they stay equal to a fresh build."""
        graph = seeded_overlay()
        snapshot = graph.csr()
        sums = snapshot.neighbour_weight_sums()
        neighbour = graph.neighbours(2)[0]
        before = sums[snapshot.row_of(neighbour)]
        graph.set_weight(2, graph.weight(2) + 5.0)
        assert graph.csr() is snapshot
        assert snapshot.neighbour_weight_sums() is sums
        assert sums[snapshot.row_of(neighbour)] == before + 5.0
        assert_csr_matches_fresh_build(graph)

    def test_set_weight_patches_the_cumulative_rows(self):
        """A whole-number weight change shifts the built cumulative rows from
        its own row on, in place: the population keeps its lists, and both
        rows stay equal to a fresh build."""
        graph = seeded_overlay()
        snapshot = graph.csr()
        cum, population = snapshot.cum_weights(), snapshot.population()
        row = snapshot.row_of(2)
        graph.set_weight(2, graph.weight(2) + 5.0)
        assert snapshot.cum_weights() is cum
        patched = snapshot.population()
        assert patched.cum is population.cum and patched.base is population.base
        assert patched.total == population.total + 5
        assert patched.cum[row] - patched.base[row] == int(graph.weight(2))
        assert_csr_matches_fresh_build(graph)
        graph.set_weight(2, 2.5)  # fractional: dropped, and the rebuild refuses it
        with pytest.raises(WalkError, match="whole number"):
            snapshot.population()
        graph.set_weight(2, 0.0)
        assert snapshot.population() is not patched
        assert_csr_matches_fresh_build(graph)

    def test_fractional_weight_drops_neighbour_sums(self):
        """While some weight is fractional a patch could round differently
        from a fresh sum, so the sums are rebuilt instead; back to whole
        weights, patching resumes."""
        graph = seeded_overlay()
        snapshot = graph.csr()
        sums = snapshot.neighbour_weight_sums()
        graph.set_weight(2, 2.5)
        rebuilt = snapshot.neighbour_weight_sums()
        assert rebuilt is not sums
        assert_csr_matches_fresh_build(graph)
        graph.set_weight(2, 3.0)
        assert snapshot.neighbour_weight_sums() is not rebuilt
        patched = snapshot.neighbour_weight_sums()
        graph.set_weight(2, 7.0)
        assert snapshot.neighbour_weight_sums() is patched
        assert_csr_matches_fresh_build(graph)

    def test_walk_tables_follow_the_layout(self):
        """Built once per layout, at its first walk: weight churn keeps them,
        a structural mutation brings a new layout without them."""
        graph = seeded_overlay()
        graph.add_vertex(50, weight=2.0)  # isolated: every slot stays
        snapshot = graph.csr()
        assert snapshot.walk_tables is None
        ArrayKernel(graph, random.Random(1)).run_biased_batch([0], 1.0, 2)
        tables = snapshot.walk_tables
        assert tables is not None
        row = snapshot.row_of(50)
        assert tables.rest_next[tables.rest_base[1] + row * tables.lam] == row
        assert_walk_tables_match(snapshot)
        graph.set_weight(2, 42.0)
        snapshot.refresh_weights(graph, graph.version)
        assert graph.csr() is snapshot and snapshot.walk_tables is tables
        graph.add_edge(50, 0)
        rebuilt = graph.csr()
        assert rebuilt is not snapshot and rebuilt.walk_tables is None
        assert_csr_matches_fresh_build(graph)

    @settings(max_examples=40, deadline=None)
    @given(operations=st.lists(OPERATION, max_size=15), seed=st.integers(0, 2**16))
    def test_walk_tables_hold_the_uniformized_chain(self, operations, seed):
        graph = seeded_overlay(seed=seed % 13)
        apply_operations(graph, operations, random.Random(seed))
        assert_walk_tables_match(graph.csr())

    def test_walk_tables_of_a_directed_layout(self):
        """The chain needs no undirected graph to be well defined: a hop to
        a vertex that lists no neighbour stays there."""
        layout = CSRLayout.build(MappingGraph({0: [1], 1: [], 2: []}))
        tables = _TickTables(layout)
        assert (tables.lam, tables.step[:1]) == (1, [1])
        assert_walk_tables_match(layout)

    def test_weight_patch_is_visible_through_numpy_views(self):
        graph = seeded_overlay()
        views = graph.csr().numpy_views()
        row = graph.csr().row_of(1)
        graph.set_weight(1, 13.0)
        # frombuffer views share memory with the array-module rows.
        assert views["weights"][row] == 13.0
        assert isinstance(views["weights"], np.ndarray)

    def test_direct_version_assignment_refreshes_weights(self):
        # from_snapshot restores `version` by assignment rather than through
        # set_weight; the csr() accessor must notice the stamp mismatch.
        graph = seeded_overlay()
        graph.csr()
        restored = OverlayGraph.from_snapshot(graph.snapshot_state())
        restored.csr()  # build at the restored version
        restored.version += 5  # simulate an out-of-band version jump
        restored._weights.set(0, 99.0)
        assert restored.csr().weights[restored.csr().row_of(0)] == 99.0
        assert restored.csr().weights_version == restored.version

    def test_sample_row_matches_graph_draw(self):
        graph = seeded_overlay(vertices=7, seed=11)
        rng_a, rng_b = random.Random(5), random.Random(5)
        csr = graph.csr()
        for _ in range(200):
            picked = graph.sample_weighted_vertex(rng_a)
            assert picked == csr.vertices[csr.sample_row(rng_b)]
            assert rng_a.getstate() == rng_b.getstate()

    def test_sample_row_error_paths(self):
        """An empty or weightless layout raises before drawing anything."""
        rng = random.Random(5)
        before = rng.getstate()
        empty = OverlayGraph()
        with pytest.raises(ValueError):
            CSRLayout.build(empty).sample_row(rng)
        with pytest.raises(ValueError):
            empty.sample_weighted_vertex(rng)
        zero = OverlayGraph()
        zero.add_vertex(0, weight=0.0)
        with pytest.raises(ValueError):
            zero.csr().sample_row(rng)
        with pytest.raises(ValueError):
            zero.sample_weighted_vertex(rng)
        assert rng.getstate() == before


class _FixedDraw:
    """An rng whose one ``random()`` draw is given."""

    def __init__(self, draw: float) -> None:
        self._draw = draw

    def random(self) -> float:
        return self._draw


class CSRConsistencyMachine(RuleBasedStateMachine):
    """Arbitrary mutation interleavings never desynchronise the snapshot.

    Half the rules read ``csr()`` (materialising the snapshot so later
    mutations exercise the invalidate/patch paths rather than the cold
    build); the invariant recompares against a from-scratch build after
    every step.
    """

    def __init__(self):
        super().__init__()
        self.graph = OverlayGraph()
        self.next_vertex = 0

    @initialize()
    def seed_graph(self):
        for _ in range(3):
            self.add_vertex()
        self.graph.add_edge(0, 1)
        self.graph.add_edge(1, 2)

    @rule()
    def add_vertex(self):
        self.graph.add_vertex(self.next_vertex, weight=1.0 + self.next_vertex % 5)
        self.next_vertex += 1

    @rule(pick=st.integers(0, 63))
    def remove_vertex(self, pick):
        vertices = self.graph.vertices()
        if len(vertices) > 2:
            self.graph.remove_vertex(vertices[pick % len(vertices)])

    @rule(a=st.integers(0, 63), b=st.integers(0, 63))
    def add_edge(self, a, b):
        vertices = self.graph.vertices()
        if len(vertices) >= 2:
            self.graph.add_edge(vertices[a % len(vertices)], vertices[b % len(vertices)])

    @rule(a=st.integers(0, 63), b=st.integers(0, 63))
    def remove_edge(self, a, b):
        vertices = self.graph.vertices()
        if len(vertices) >= 2:
            self.graph.remove_edge(vertices[a % len(vertices)], vertices[b % len(vertices)])

    @rule(pick=st.integers(0, 63), weight=st.floats(0.5, 50.0))
    def set_weight(self, pick, weight):
        vertices = self.graph.vertices()
        if vertices:
            self.graph.set_weight(vertices[pick % len(vertices)], weight)

    @rule(pick=st.integers(0, 63), size=st.integers(0, 200))
    def set_size_weight(self, pick, size):
        # A cluster size, as the engine sets it: the neighbour sums are
        # patched in place whenever every weight is whole.
        vertices = self.graph.vertices()
        if vertices:
            self.graph.set_weight(vertices[pick % len(vertices)], float(size))

    @rule()
    def materialise_snapshot(self):
        self.graph.csr()

    @rule()
    def materialise_neighbour_sums(self):
        self.graph.csr().neighbour_weight_sums()

    @rule(draw=st.floats(0.0, 0.999))
    def sample(self, draw):
        csr = self.graph.csr()
        if csr.cum_weights() and csr.cum_weights()[-1] > 0:
            row = csr.sample_row(_FixedDraw(draw))
            assert 0 <= row < len(csr)

    @invariant()
    def snapshot_matches_fresh_build(self):
        assert_csr_matches_fresh_build(self.graph)

    @invariant()
    def aggregates_match(self):
        csr = self.graph.csr()
        assert len(csr) == len(self.graph)
        assert len(csr.indices) == 2 * self.graph.edge_count()


CSRConsistencyMachine.TestCase.settings = settings(max_examples=40, deadline=None)
TestCSRConsistency = CSRConsistencyMachine.TestCase
