"""E2 — Figure 2: every maintenance operation has polylog(N) complexity.

Paper claim (Figure 2 caption and Section 3.3): Join, Leave, Split and Merge
each cost ``polylog(N)`` messages and ``O(log^4 N)`` rounds.

What we run: for a sweep of maximum sizes ``N``, bootstrap a NOW system,
apply a fixed number of joins and leaves, and record the *measured* message
and round cost per operation type (split/merge costs are captured inside the
join/leave that triggered them plus dedicated scopes).  The table reports the
mean per-operation cost for each ``N`` and the fitted growth exponents: the
power-law exponent in ``N`` should be far below 1 (polylog growth), and the
polylog exponent should be a small constant.
"""

from __future__ import annotations

import pytest

from repro.analysis import ExperimentTable
from repro.analysis.complexity import fit_polylog, fit_power_law, is_consistent_with_polylog
from repro.scenarios import CostLedgerProbe
from repro.workloads import GrowthWorkload, ShrinkWorkload

from common import bootstrap_engine, fresh_rng, run_once, run_steps, sqrt_scaled_size

SWEEP = [256, 1024, 4096, 16384, 65536]
JOINS_PER_SIZE = 25
LEAVES_PER_SIZE = 25


def run_for_size(max_size: int, seed: int):
    engine = bootstrap_engine(
        max_size, sqrt_scaled_size(max_size), tau=0.1, seed=seed
    )
    # A growth phase of exactly JOINS_PER_SIZE joins (roles corrupted at 10%),
    # then a shrink phase of exactly LEAVES_PER_SIZE leaves, each measured by
    # a fresh cost ledger probe through the shared runner.
    join_probe = CostLedgerProbe()
    growth = GrowthWorkload(
        fresh_rng(seed + 1),
        target_size=engine.network_size + JOINS_PER_SIZE,
        byzantine_join_fraction=0.1,
    )
    run_steps(engine, growth, JOINS_PER_SIZE, probes=[join_probe], name="fig2-joins")
    leave_probe = CostLedgerProbe()
    shrink = ShrinkWorkload(
        fresh_rng(seed + 2), target_size=engine.network_size - LEAVES_PER_SIZE
    )
    run_steps(engine, shrink, LEAVES_PER_SIZE, probes=[leave_probe], name="fig2-leaves")
    return {
        "max_size": max_size,
        "join_messages": join_probe.mean_messages("join"),
        "join_rounds": join_probe.mean_rounds("join"),
        "leave_messages": leave_probe.mean_messages("leave"),
        "leave_rounds": leave_probe.mean_rounds("leave"),
        "cluster_size": engine.parameters.target_cluster_size,
    }


def run_experiment():
    return [run_for_size(size, seed=100 + index) for index, size in enumerate(SWEEP)]


@pytest.mark.experiment("E2")
def test_fig2_operation_costs(benchmark):
    rows = run_once(benchmark, run_experiment)
    table = ExperimentTable(
        title="E2 Figure 2 - measured per-operation cost vs N",
        headers=[
            "N",
            "cluster size",
            "join msgs",
            "join rounds",
            "leave msgs",
            "leave rounds",
        ],
    )
    for row in rows:
        table.add_row(
            row["max_size"],
            row["cluster_size"],
            row["join_messages"],
            row["join_rounds"],
            row["leave_messages"],
            row["leave_rounds"],
        )

    sizes = [row["max_size"] for row in rows]
    join_power = fit_power_law(sizes, [row["join_messages"] for row in rows])
    leave_power = fit_power_law(sizes, [row["leave_messages"] for row in rows])
    join_polylog = fit_polylog(sizes, [row["join_messages"] for row in rows])
    leave_polylog = fit_polylog(sizes, [row["leave_messages"] for row in rows])
    table.add_note(
        f"join: N-exponent {join_power.exponent:.2f} (polylog exponent "
        f"{join_polylog.exponent:.2f}); leave: N-exponent {leave_power.exponent:.2f} "
        f"(polylog exponent {leave_polylog.exponent:.2f}). Paper: both polylog(N)."
    )
    table.print()

    # Shape assertions: costs grow sub-linearly in N (polylog), leaves are the
    # most expensive operation (cascading exchanges over ~log N partner
    # clusters pushes them towards log^7 N, so their finite-size power-law
    # exponent sits higher than join's but still below linear), and the
    # polylog model explains the curves well.
    assert is_consistent_with_polylog(sizes, [row["join_messages"] for row in rows])
    assert leave_power.exponent < 1.0
    assert leave_polylog.r_squared > 0.97
    assert all(row["leave_messages"] > row["join_messages"] for row in rows)
    round_power = fit_power_law(sizes, [row["leave_rounds"] for row in rows])
    assert round_power.exponent < 1.0
