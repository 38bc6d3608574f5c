"""E5 — Figure 1: initialization cost.

Paper claims (Figure 1 and Sections 3.2/6): the initialization phase — global
discovery plus clusterization via Byzantine agreement — runs while the
network is small (``n_t0`` as low as ``sqrt(N)``) and costs
``O(N^{3/2} log N)`` overall; the discovery sub-phase costs ``O(n * e)``
messages and the clusterization sub-phase ``O~(n sqrt n)``.  The conclusion
notes the authors would like an initialization in ``o(n_t0^2)`` "as opposed
to ``O(n_t0^3)``" — i.e. the paper's own accounting of the worst case is
cubic in ``n_t0`` and super-quadratic behaviour is expected.

What we run: initialize populations of increasing size ``n_t0`` (message-level
discovery for the smaller ones, the metered cost model above that) and record
the measured cost of each sub-phase, then fit the growth exponent in
``n_t0``.  The shape check: the exponent lies between 1.5 (the clusterization
bound) and 3 (the paper's worst case), and discovery dominates as predicted.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import ExperimentTable
from repro.analysis.complexity import fit_power_law
from repro.core.initialization import NowInitializer

from common import run_once, scaled_parameters

SWEEP = [96, 160, 256, 420, 700]
MAX_SIZE = 16384


def run_for_size(initial_size: int, seed: int):
    params = scaled_parameters(MAX_SIZE, tau=0.1)
    initializer = NowInitializer(
        params, random.Random(seed), discovery_mode="auto", message_discovery_limit=200
    )
    state, report = initializer.build(initial_size=initial_size, byzantine_fraction=0.1)
    return {
        "initial_size": initial_size,
        "discovery": report.discovery_messages,
        "agreement": report.agreement_messages,
        "clusterization": report.clusterization_messages,
        "total": report.total_messages,
        "rounds": report.total_rounds,
        "clusters": report.cluster_count,
        "mode": report.discovery_mode,
        "committee_honest": report.committee_honest_fraction,
    }


def run_experiment():
    return [run_for_size(size, seed=400 + index) for index, size in enumerate(SWEEP)]


@pytest.mark.experiment("E5")
def test_fig1_initialization_cost(benchmark):
    rows = run_once(benchmark, run_experiment)
    table = ExperimentTable(
        title="E5 Figure 1 - initialization cost vs initial size n_t0",
        headers=[
            "n_t0",
            "discovery msgs",
            "agreement msgs",
            "clusterization msgs",
            "total msgs",
            "rounds",
            "#clusters",
            "discovery mode",
        ],
    )
    for row in rows:
        table.add_row(
            row["initial_size"],
            row["discovery"],
            row["agreement"],
            row["clusterization"],
            row["total"],
            row["rounds"],
            row["clusters"],
            row["mode"],
        )
    sizes = [row["initial_size"] for row in rows]
    total_fit = fit_power_law(sizes, [row["total"] for row in rows])
    discovery_fit = fit_power_law(sizes, [row["discovery"] for row in rows])
    agreement_fit = fit_power_law(sizes, [row["agreement"] for row in rows])
    table.add_note(
        f"Fitted exponents in n_t0: total {total_fit.exponent:.2f}, discovery "
        f"{discovery_fit.exponent:.2f}, agreement {agreement_fit.exponent:.2f}. "
        "Paper: discovery O(n*e), agreement O~(n sqrt n), overall between n^1.5 "
        "and the n^3 worst case the conclusion wants to improve on."
    )
    table.print()

    # Shape assertions: super-linear but at most cubic total growth, the
    # agreement sub-phase tracks its n^1.5 bound, every committee is
    # honest-supermajority, and initialization is far more expensive than a
    # single polylog maintenance operation (which is the whole point of
    # confining it to the small-n phase).
    assert 1.4 <= total_fit.exponent <= 3.0
    assert 1.3 <= agreement_fit.exponent <= 2.0
    assert all(row["committee_honest"] > 2.0 / 3.0 for row in rows)
    assert all(row["total"] > 0 for row in rows)
    assert rows[0]["mode"] == "message" and rows[-1]["mode"] == "model"
