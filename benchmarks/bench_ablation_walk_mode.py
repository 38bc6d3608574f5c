"""A3 (ablation) — walk modes: simulated biased CTRW vs the stationary-law oracle.

The design notes in docs/ARCHITECTURE.md document the one simulation shortcut the long-churn experiments
take: ``randCl`` can either simulate the biased CTRW hop by hop
(``WalkMode.SIMULATED``) or draw the cluster directly from the walk's target
distribution ``|C|/n`` while charging the expected walking cost
(``WalkMode.ORACLE``).  E10 already shows the two endpoint distributions are
statistically indistinguishable; this ablation closes the loop at the *system*
level.  It runs the same churn workload under both modes — as one multi-seed
:class:`~repro.experiments.sweep.SweepSpec` whose grid axis is the nested
``engine_options.walk_mode`` field, fanned out across worker processes — and
compares

* the corruption trajectories (they must agree statistically — the protocol's
  safety cannot depend on which mode produced the samples), and
* the charged communication costs (the oracle's expected-cost model must
  track the simulated walk's measured cost),

with the simulated mode running on the hop engine (``repro.walks.kernel``,
each exchange pass's walks drawn as one batch).
"""

from __future__ import annotations

import pytest

from repro.analysis import ExperimentTable
from repro.experiments import SweepSpec, run_sweep

from common import run_once

MAX_SIZE = 2048
INITIAL = 200
TAU = 0.15
STEPS = 150
SEEDS = [970, 971]


def build_spec() -> SweepSpec:
    return SweepSpec(
        name="ablation-walk-mode",
        scenario=dict(
            name="walk-mode",
            max_size=MAX_SIZE,
            initial_size=INITIAL,
            tau=TAU,
            steps=STEPS,
            workload={"kind": "uniform"},
        ),
        grid={"engine_options.walk_mode": ["simulated", "oracle"]},
        seeds=SEEDS,
        workers=2,
    )


def run_experiment():
    result = run_sweep(build_spec())
    rows = {}
    for point in result.points():
        records = result.records_for(point)
        aggregates = result.aggregate(point)
        events = aggregates["events"].mean
        rows[point["engine_options.walk_mode"]] = {
            "mode": point["engine_options.walk_mode"],
            "mean_worst": aggregates["mean_worst_fraction"],
            "peak_worst": aggregates["peak_worst_fraction"],
            "mean_operation_cost": aggregates["mean_messages_per_event"],
            "mean_walk_hops": aggregates["walk_hops"].mean / max(1.0, events),
            "events_per_second": aggregates["events_per_second"],
            "invariants": all(record["invariants_ok"] for record in records),
            "completed": all(
                record["stop_reason"] == "steps exhausted" for record in records
            ),
        }
    return rows


@pytest.mark.experiment("A3")
def test_ablation_walk_mode(benchmark):
    rows = run_once(benchmark, run_experiment)
    table = ExperimentTable(
        title=(
            f"A3 ablation - simulated CTRW vs oracle sampling "
            f"({STEPS} churn steps, {len(SEEDS)} seeds per mode)"
        ),
        headers=[
            "walk mode",
            "mean worst corruption (± ci95)",
            "peak worst corruption (± ci95)",
            "mean msgs per operation",
            "mean walk hops per operation",
            "events per second",
        ],
    )
    for key in ("simulated", "oracle"):
        row = rows[key]
        table.add_row(
            row["mode"],
            str(row["mean_worst"]),
            str(row["peak_worst"]),
            row["mean_operation_cost"].mean,
            row["mean_walk_hops"],
            row["events_per_second"].mean,
        )
    table.add_note(
        "The oracle mode draws from the walk's stationary law and charges its expected "
        "cost; it must reproduce the simulated mode's safety behaviour and cost scale "
        "(E10 checks the distributions directly).  Both columns aggregate a multi-seed "
        "sweep run through repro.experiments; the simulated mode runs on the hop "
        "engine over the overlay's CSR snapshot (docs/ARCHITECTURE.md)."
    )
    table.print()

    simulated = rows["simulated"]
    oracle = rows["oracle"]
    # Every run must finish its step budget with the structural invariants
    # intact — a stale CSR snapshot would surface here first.
    assert simulated["invariants"] and oracle["invariants"]
    assert simulated["completed"] and oracle["completed"]
    # Safety statistics agree within the Monte-Carlo noise of 150-step runs.
    assert abs(simulated["mean_worst"].mean - oracle["mean_worst"].mean) < 0.06
    assert abs(simulated["peak_worst"].mean - oracle["peak_worst"].mean) < 0.15
    # The charged costs agree within a factor of two (same model, measured vs expected hops).
    ratio = simulated["mean_operation_cost"].mean / max(1.0, oracle["mean_operation_cost"].mean)
    assert 0.5 < ratio < 2.0
    hop_ratio = simulated["mean_walk_hops"] / max(1.0, oracle["mean_walk_hops"])
    assert 0.4 < hop_ratio < 2.5


if __name__ == "__main__":
    for mode, row in run_experiment().items():
        print(mode, row)
