#!/usr/bin/env python3
"""Polynomial size variation: the scenario prior schemes could not handle.

The paper's headline improvement over Awerbuch–Scheideler-style schemes is
tolerating a *polynomially* varying network size: the number of nodes may
sweep anywhere in ``[sqrt(N), N]`` while every cluster keeps its honest
supermajority and the overlay keeps its expansion.  This example grows a
system from near ``sqrt(N)`` to several times that size, shrinks it back, and
reports how NOW's cluster geometry adapts (splits on the way up, merges on
the way down) compared to the same engine under the ``static_clusters``
placement rule, whose cluster count is fixed and whose clusters bloat and
thin out instead.

Run with::

    python examples/polynomial_churn.py
"""

from __future__ import annotations

import random

from repro import Scenario, SimulationRunner
from repro.analysis import format_table
from repro.overlay.expansion import analyse_expansion
from repro.workloads import GrowthWorkload, ShrinkWorkload

MAX_SIZE = 16384
START = 256
PEAK = 900


def snapshot(label, engine, static):
    sizes = engine.cluster_sizes().values()
    expansion = analyse_expansion(engine.state.overlay.graph)
    return [
        label,
        engine.network_size,
        engine.cluster_count,
        max(sizes),
        f"{engine.worst_cluster_fraction():.2f}",
        f"{expansion.spectral_gap:.2f}",
        static.cluster_count,
        max(static.cluster_sizes().values()),
    ]


def main() -> None:
    engine, static = (
        Scenario(engine=rule, max_size=MAX_SIZE, initial_size=START, tau=0.1, seed=11)
        .build_engine()
        for rule in ("now", "static_clusters")
    )

    rows = [snapshot("start", engine, static)]

    def run_phase(target_engine, workload):
        runner = SimulationRunner(
            target_engine, workload, max_idle_streak=2, name="polynomial-churn"
        )
        return runner.run(PEAK)

    # Grow to the peak size (one join per time step, adversary corrupting 10%).
    run_phase(engine, GrowthWorkload(random.Random(12), target_size=PEAK, byzantine_join_fraction=0.1))
    run_phase(static, GrowthWorkload(random.Random(12), target_size=PEAK, byzantine_join_fraction=0.1))
    rows.append(snapshot(f"after growth to {PEAK}", engine, static))

    # Shrink back down towards the starting size.
    run_phase(engine, ShrinkWorkload(random.Random(13), target_size=START + 50))
    run_phase(static, ShrinkWorkload(random.Random(13), target_size=START + 50))
    rows.append(snapshot("after shrinking back", engine, static))

    print("NOW vs static cluster count under polynomial size variation")
    print(
        format_table(
            [
                "phase",
                "n",
                "NOW #clusters",
                "NOW max |C|",
                "NOW worst corruption",
                "NOW overlay gap",
                "static #clusters",
                "static max |C|",
            ],
            rows,
        )
    )
    print()
    print("NOW splits clusters while growing and merges them while shrinking, so the")
    print("maximum cluster size stays at Theta(log N) and the overlay stays an expander;")
    print("the static scheme's clusters grow with n (and its per-cluster agreement cost")
    print("grows quadratically with them), which is exactly the failure mode the paper")
    print("set out to remove.")

    invariants = engine.check_invariants()
    print(f"\nNOW invariant check at the end: {'OK' if invariants.holds else invariants.violations}")


if __name__ == "__main__":
    main()
