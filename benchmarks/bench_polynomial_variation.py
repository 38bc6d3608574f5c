"""E6 — Polynomial size variation: dynamic clusters vs a static cluster count.

Paper claim (Sections 1 and 5): previous clustering schemes assume the number
of nodes varies by at most a constant factor; with a static number of
clusters, growing from ``n`` to ``n^2`` blows the per-cluster size up and the
intra-cluster computation degenerates towards the single-committee cost.  NOW
keeps clusters at ``Theta(log N)`` by splitting and merging, so it tolerates
polynomial variation.

What we run: grow a system from roughly ``2 sqrt(N)`` nodes towards a several
times larger size under both NOW and the ``static_clusters`` placement rule
(same bootstrap).  The table tracks, at checkpoints of the growth,
the maximum cluster size and the implied quadratic intra-cluster agreement
cost for both schemes.
"""

from __future__ import annotations

import pytest

from repro.analysis import ExperimentTable
from repro.scenarios import SimulationRunner
from repro.workloads import GrowthWorkload

from common import bootstrap_engine, fresh_rng, run_once

MAX_SIZE = 16384
START = 256          # ~ 2 sqrt(N)
TARGET = 1100        # > 4x growth, still far below N
CHECKPOINTS = [256, 420, 700, 1100]


def run_experiment():
    now_engine = bootstrap_engine(MAX_SIZE, START, tau=0.1, seed=61)
    static = bootstrap_engine(MAX_SIZE, START, tau=0.1, seed=61, engine="static_clusters")
    now_workload = GrowthWorkload(fresh_rng(62), target_size=TARGET, byzantine_join_fraction=0.1)
    static_workload = GrowthWorkload(
        fresh_rng(62), target_size=TARGET, byzantine_join_fraction=0.1
    )
    now_runner = SimulationRunner(
        now_engine, now_workload, max_idle_streak=2, name="poly-now"
    )
    static_runner = SimulationRunner(
        static, static_workload, max_idle_streak=2, name="poly-static"
    )

    checkpoints = []
    for target in CHECKPOINTS:
        now_runner.run_until_size(target, max_steps=4 * TARGET)
        static_runner.run_until_size(target, max_steps=4 * TARGET)
        now_max = max(now_engine.cluster_sizes().values())
        static_max = max(static.cluster_sizes().values())
        checkpoints.append(
            {
                "size": target,
                "now_clusters": now_engine.cluster_count,
                "now_max_cluster": now_max,
                "now_worst_fraction": now_engine.worst_cluster_fraction(),
                "static_clusters": static.cluster_count,
                "static_max_cluster": static_max,
                "static_agreement_cost": static_max ** 2,
                "now_agreement_cost": now_max ** 2,
            }
        )
    return {
        "checkpoints": checkpoints,
        "split_threshold": now_engine.parameters.split_threshold,
        "now_invariants": now_engine.check_invariants(check_honest_majority=False).holds,
    }


@pytest.mark.experiment("E6")
def test_polynomial_size_variation(benchmark):
    result = run_once(benchmark, run_experiment)
    table = ExperimentTable(
        title=f"E6 polynomial growth {START} -> {TARGET} (N={MAX_SIZE}): NOW vs static cluster count",
        headers=[
            "n",
            "NOW #clusters",
            "NOW max |C|",
            "NOW agr cost",
            "static #clusters",
            "static max |C|",
            "static agr cost",
        ],
    )
    for row in result["checkpoints"]:
        table.add_row(
            row["size"],
            row["now_clusters"],
            row["now_max_cluster"],
            row["now_agreement_cost"],
            row["static_clusters"],
            row["static_max_cluster"],
            row["static_agreement_cost"],
        )
    table.add_note(
        "Paper: with a static number of clusters a polynomial size increase inflates "
        "every cluster (and the quadratic intra-cluster agreement cost with it); NOW's "
        "split/merge keeps clusters at Theta(log N)."
    )
    table.print()

    first, last = result["checkpoints"][0], result["checkpoints"][-1]
    # NOW: cluster count grows, max cluster size stays below the split threshold.
    assert last["now_clusters"] > first["now_clusters"]
    assert last["now_max_cluster"] <= result["split_threshold"]
    # Static cluster count: frozen, max cluster size grows ~ proportionally.
    assert last["static_clusters"] == first["static_clusters"]
    assert last["static_max_cluster"] > 2.5 * first["static_max_cluster"]
    # The implied per-cluster agreement cost gap widens by at least ~4x.
    assert last["static_agreement_cost"] > 4 * last["now_agreement_cost"]
    assert result["now_invariants"]
