"""A1 (ablation) — how much of the exchange machinery is actually needed?

The Leave operation is the most expensive part of NOW because, after the
departing node's cluster exchanges all of its nodes, *every cluster that
traded a node with it* exchanges all of its nodes too — the proof of
Theorem 3 needs this cascade so that the partner clusters' compositions stay
uniform.  This ablation quantifies what the cascade buys and what it costs:

* **full**      — the paper's protocol (cascading exchanges on),
* **no-cascade**— only the departing node's cluster re-exchanges,
* **no-shuffle**— no exchange at all (the ``no_shuffle`` placement rule of
  E7, included for scale).

under the same adversarial workload (join–leave attack plus background
churn).  The table reports safety (worst corruption, exceedance rate of 1/3)
and cost (messages per leave) for each variant, i.e. the safety-per-message
trade-off of the design choice.
"""

from __future__ import annotations

import pytest

from repro import EngineConfig
from repro.adversary import JoinLeaveAttack
from repro.analysis import ExperimentTable
from repro.scenarios import CorruptionTrajectoryProbe, CostLedgerProbe
from repro.workloads import MixedDriver, UniformChurn

from common import bootstrap_engine, fresh_rng, run_once, run_steps

MAX_SIZE = 4096
INITIAL = 280
TAU = 0.2
STEPS = 220


def drive_variant(engine, seed: int):
    target = engine.state.clusters.cluster_ids()[0]
    attack = JoinLeaveAttack(fresh_rng(seed), target_cluster=target)
    churn = UniformChurn(fresh_rng(seed + 1), byzantine_join_fraction=TAU)
    driver = MixedDriver([(attack, 0.5), (churn, 0.5)], fresh_rng(seed + 2))

    corruption = CorruptionTrajectoryProbe()
    costs = CostLedgerProbe()
    run_steps(engine, driver, STEPS, probes=[corruption, costs], name="ablation-shuffle")
    return corruption.summary(), costs.mean_messages("leave")


def run_experiment():
    variants = []

    full = bootstrap_engine(
        MAX_SIZE, INITIAL, tau=TAU, seed=81,
        config=EngineConfig(cascade_exchanges=True),
    )
    variants.append(("full exchange + cascade", *drive_variant(full, seed=810)))

    no_cascade = bootstrap_engine(
        MAX_SIZE, INITIAL, tau=TAU, seed=81,
        config=EngineConfig(cascade_exchanges=False),
    )
    variants.append(("exchange, no cascade", *drive_variant(no_cascade, seed=810)))

    no_shuffle = bootstrap_engine(MAX_SIZE, INITIAL, tau=TAU, seed=81, engine="no_shuffle")
    variants.append(("no shuffling at all", *drive_variant(no_shuffle, seed=810)))
    return variants


@pytest.mark.experiment("A1")
def test_ablation_shuffling(benchmark):
    variants = run_once(benchmark, run_experiment)
    table = ExperimentTable(
        title=f"A1 ablation - exchange cascade under a targeted attack (tau={TAU}, {STEPS} steps)",
        headers=[
            "variant",
            "mean worst corruption",
            "max worst corruption",
            "fraction of steps >= 1/3",
            "mean messages per leave",
        ],
    )
    for label, summary, leave_cost in variants:
        table.add_row(
            label,
            summary.mean,
            summary.maximum,
            summary.fraction_above_threshold,
            leave_cost,
        )
    table.add_note(
        "The cascade is the expensive part of Leave (paper: needed so partner clusters' "
        "compositions stay uniform); dropping it saves roughly a log-factor of messages "
        "and costs a measurable amount of safety margin, while dropping shuffling "
        "entirely loses the guarantee outright."
    )
    table.print()

    by_label = {label: (summary, cost) for label, summary, cost in variants}
    full_summary, full_cost = by_label["full exchange + cascade"]
    lean_summary, lean_cost = by_label["exchange, no cascade"]
    none_summary, _ = by_label["no shuffling at all"]
    # Cost ordering: the cascade is the most expensive.
    assert full_cost > lean_cost > 0
    # Safety ordering: both exchanging variants keep the worst cluster far below
    # the no-shuffle variant, which gets captured outright.
    assert none_summary.maximum > 0.5
    assert full_summary.maximum < none_summary.maximum
    assert lean_summary.maximum < none_summary.maximum
    # The full protocol's typical corruption is no worse than the ablated one.
    assert full_summary.mean <= lean_summary.mean + 0.05
