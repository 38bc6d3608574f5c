"""Tests for the exact walk law (``repro.walks.law``).

Three families:

* **Sampled walks against the exact law** (one-sample chi-square): the
  kernel's endpoint counts on both hop paths, and the readable per-hop
  reference walk's, against :func:`biased_law`'s row.  The reference case
  checks the law against the walk's semantics; the kernel cases check the
  hop loops against the law.
* **Exact identities** (hypothesis) over small undirected overlays with an
  isolated vertex and weight churn.
* **The finding**: the residual bias of ``randCl`` against ``|C| / n`` at
  the spine's two overlay shapes, reproduced to two significant figures.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.statistics import chi_square_critical
from repro.core.randcl import RandCl
from repro.errors import WalkError
from repro.scenarios import Scenario
from repro.walks.interface import MappingGraph
from repro.walks.kernel import ArrayKernel
from repro.walks.law import biased_law, segment_law, total_variation

from reference_walk import reference_biased_walk
from test_walk_fastpath import apply_operations, seeded_overlay
from test_walk_kernel import PATHS, on_path, small_overlays

#: The chi-square shape: short segments and a tight restart cap keep the
#: walk far from stationary, so the restart-and-accept series itself is
#: tested, truncation included.
SEGMENT, CAP, SAMPLES = 0.3, 3, 10_000


def assert_fits_law(endpoints, csr, law_row) -> None:
    """One-sample chi-square of endpoint counts against ``law_row``, p = 0.001.

    At the module's shape (``seeded_overlay(6, 7)`` from vertex 0) the test
    has level 0.001 and, by the noncentral chi-square at 10 000 samples,
    power 1.0 against the ``|C| / n`` target, above 0.99 against a segment
    20 % longer or one restart more or fewer, and 0.35-0.62 against a
    segment 10 % longer or shorter.
    """
    counts = np.zeros(len(csr))
    for endpoint in endpoints:
        counts[csr.row_of(endpoint)] += 1
    expected = counts.sum() * law_row
    support = expected > 0
    assert counts[~support].sum() == 0
    statistic = float(((counts[support] - expected[support]) ** 2 / expected[support]).sum())
    assert statistic < chi_square_critical(int(support.sum()) - 1)


def _law(graph):
    return biased_law(graph.csr(), SEGMENT, CAP)


# ----------------------------------------------------------------------
# Sampled walks against the exact law
# ----------------------------------------------------------------------
class TestSampledWalksFitTheLaw:
    @pytest.mark.parametrize("path", PATHS)
    def test_kernel_fits_biased_law(self, path):
        graph = seeded_overlay(vertices=6, seed=7)
        kernel = ArrayKernel(graph, random.Random(61))
        outcomes = on_path(path, kernel.run_biased_batch, [0] * SAMPLES, SEGMENT, CAP)
        assert any(truncated for *_, truncated in outcomes)
        assert_fits_law([cluster for cluster, *_ in outcomes], graph.csr(), _law(graph)[0])

    @pytest.mark.parametrize("path", PATHS)
    def test_kernel_fits_biased_law_after_churn(self, path):
        """The kernel reads the rebuilt CSR after churn, not a stale snapshot."""
        graph = seeded_overlay(vertices=7, seed=11)
        kernel = ArrayKernel(graph, random.Random(31))
        kernel.run_biased_batch([0] * 200, SEGMENT, CAP)  # materialise, then churn
        apply_operations(
            graph,
            [("add_vertex", 1, 0), ("add_edge", 7, 0), ("remove_edge", 0, 1), ("set_weight", 2, 5)],
            random.Random(3),
        )
        csr = graph.csr()
        outcomes = on_path(path, kernel.run_biased_batch, [0] * SAMPLES, SEGMENT, CAP)
        assert_fits_law([cluster for cluster, *_ in outcomes], csr, _law(graph)[csr.row_of(0)])

    def test_reference_walk_fits_biased_law(self):
        graph = seeded_overlay(vertices=6, seed=7)
        rng = random.Random(59)
        endpoints = [
            reference_biased_walk(graph, rng, 0, SEGMENT, CAP)[0] for _ in range(SAMPLES)
        ]
        assert_fits_law(endpoints, graph.csr(), _law(graph)[0])


# ----------------------------------------------------------------------
# Exact identities (hypothesis)
# ----------------------------------------------------------------------
class TestLawIdentities:
    @settings(max_examples=40, deadline=None)
    @given(
        graph=small_overlays(),
        churn=st.lists(st.tuples(st.integers(0, 63), st.integers(1, 8)), max_size=6),
        duration=st.floats(0.05, 30.0),
        max_restarts=st.integers(1, 8),
        equal=st.integers(1, 8),
    )
    def test_identities(self, graph, churn, duration, max_restarts, equal):
        vertices = list(graph.vertices())
        for pick, weight in churn:
            graph.set_weight(vertices[pick % len(vertices)], float(weight))
        csr = graph.csr()
        law = biased_law(csr, duration, max_restarts)
        # Every row is a distribution.
        assert law.min() > -1e-12
        np.testing.assert_allclose(law.sum(axis=1), 1.0, atol=1e-9)
        # The isolated vertex (the strategy adds one) never leaves.
        isolated = csr.row_of(len(vertices) - 2)
        indicator = np.eye(len(csr))[isolated]
        np.testing.assert_allclose(law[isolated], indicator, atol=1e-12)
        # With equal weights every segment is accepted: one plain segment.
        for vertex in vertices:
            graph.set_weight(vertex, float(equal))
        csr = graph.csr()
        np.testing.assert_allclose(
            biased_law(csr, duration, max_restarts), segment_law(csr, duration), atol=1e-12
        )

    def test_zero_duration_segment_stays_put(self):
        csr = seeded_overlay().csr()
        np.testing.assert_allclose(segment_law(csr, 0.0), np.eye(len(csr)), atol=1e-12)

    def test_segment_is_uniform_on_an_irregular_graph(self):
        """A long CTRW segment is uniform even on a star (its generator is
        the Laplacian), where a discrete-time walk sits at the hub half the time."""
        star = MappingGraph({0: [1, 2, 3, 4], 1: [0], 2: [0], 3: [0], 4: [0]})
        np.testing.assert_allclose(segment_law(star.csr(), 50.0), 0.2, atol=1e-12)

    def test_total_variation(self):
        law = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(total_variation(law, [0.5, 0.5, 0.0]), [0.0, 1.0])

    def test_refusals(self):
        csr = seeded_overlay().csr()
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(WalkError, match="segment duration"):
                biased_law(csr, bad, 4)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(WalkError, match="walk duration"):
                segment_law(csr, bad)
        with pytest.raises(WalkError, match="max_restarts"):
            biased_law(csr, 1.0, 0)
        weightless = MappingGraph({0: [1], 1: [0]}, {0: 0.0, 1: 0.0})
        with pytest.raises(WalkError, match="positive vertex weight"):
            biased_law(weightless.csr(), 1.0, 4)
        directed = MappingGraph({0: [1], 1: [2], 2: [0]})
        for law in (lambda c: segment_law(c, 1.0), lambda c: biased_law(c, 1.0, 4)):
            with pytest.raises(WalkError, match="not symmetric"):
                law(directed.csr())


# ----------------------------------------------------------------------
# The finding: randCl's residual bias at the spine's shapes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("initial_size, clusters, max_tv", [(300, 8, "1.6e-04"), (1200, 33, "6.1e-07")])
def test_residual_bias_at_the_spine_shapes(initial_size, clusters, max_tv):
    """Seed 47, N = 4096, tau = 0.15, at bootstrap, with the segment length
    and restart cap ``RandCl`` configures: the biased walk's law is within
    ``max_tv`` of ``|C| / n`` from every start."""
    scenario = Scenario.from_dict(
        {
            "name": "walk-law",
            "max_size": 4096,
            "initial_size": initial_size,
            "tau": 0.15,
            "seed": 47,
            "workload": {"kind": "uniform"},
        }
    )
    state = scenario.build_engine().state
    csr = state.overlay.graph.csr()
    assert len(csr) == clusters
    randcl = RandCl(state, rng=random.Random(0))
    randcl.select(csr.vertices[0])  # configures the walk for this overlay
    law = biased_law(csr, *randcl._walk_params)
    weights = csr.numpy_views()["weights"]
    assert f"{total_variation(law, weights / weights.sum()).max():.1e}" == max_tv
