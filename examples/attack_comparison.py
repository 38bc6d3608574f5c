#!/usr/bin/env python3
"""Attack comparison: the join–leave attack against NOW and two comparison rules.

This example reproduces, at demo scale, the motivation of Section 3.3: an
adversary that keeps re-inserting its nodes until they land in one target
cluster captures that cluster unless the protocol shuffles nodes on every
membership change.  We run the same attack (mixed with background churn)
against the same engine under three placement rules (``Scenario.engine``):

* ``now``         — full ``exchange`` shuffling on every join and leave,
* ``cuckoo_rule`` — constant-size eviction on joins only,
* ``no_shuffle``  — nodes stay where they land.

and print the corruption trajectory of the targeted cluster for each scheme.

Run with::

    python examples/attack_comparison.py
"""

from __future__ import annotations

import random

from repro import Scenario, SimulationRunner
from repro.adversary import JoinLeaveAttack
from repro.analysis import format_table
from repro.scenarios import CallbackProbe
from repro.workloads import MixedDriver, UniformChurn

MAX_SIZE = 4096
INITIAL = 260
TAU = 0.2
STEPS = 240
REPORT_EVERY = 40
#: Placement rule (``Scenario.engine``) -> table label.
SCHEMES = {"now": "NOW (full exchange)", "cuckoo_rule": "cuckoo rule", "no_shuffle": "no shuffling"}


def run_attack(engine, label: str, seed: int):
    """Drive the attack against ``engine`` and return its corruption trajectory."""
    target = engine.state.clusters.cluster_ids()[0]
    attack = JoinLeaveAttack(random.Random(seed), target_cluster=target)
    background = UniformChurn(random.Random(seed + 1), byzantine_join_fraction=TAU)
    driver = MixedDriver([(attack, 0.6), (background, 0.4)], random.Random(seed + 2))

    def target_fraction(_engine, _report, _step):
        if target in _engine.state.clusters:
            return _engine.state.cluster_byzantine_fraction(target)
        return _engine.worst_cluster_fraction()

    probe = CallbackProbe(target_fraction, every=REPORT_EVERY, name="target-fraction")
    SimulationRunner(engine, driver, probes=[probe], name=label).run(STEPS)
    return label, probe.values


def main() -> None:
    results = []
    for rule, label in SCHEMES.items():
        scenario = Scenario(engine=rule, max_size=MAX_SIZE, initial_size=INITIAL, tau=TAU, seed=3)
        results.append(run_attack(scenario.build_engine(), label, seed=100))

    samples = min(len(trajectory) for _, trajectory in results)
    headers = ["scheme"] + [
        f"event {(index + 1) * REPORT_EVERY}" for index in range(samples)
    ]
    rows = [
        [label] + [f"{fraction:.2f}" for fraction in trajectory[:samples]]
        for label, trajectory in results
    ]
    print(f"Corruption of the targeted cluster under a join-leave attack (tau={TAU})")
    print(format_table(headers, rows))
    print()
    print("Reading: a value of 0.33 or more means the adversary holds a third of the")
    print("targeted cluster (its majority-rule messages are no longer trustworthy at 0.5).")
    print("NOW keeps the target near the global corruption level; without shuffling the")
    print("same attack captures the cluster outright — the paper's Section 3.3 argument.")


if __name__ == "__main__":
    main()
