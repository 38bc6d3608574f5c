"""T1 — Engine throughput: steady-state churn events per second.

This benchmark maintains the performance trajectory of the engine stack: it
drives a size-stable :class:`~repro.workloads.churn.UniformChurn` scenario
through the shared :class:`~repro.scenarios.runner.SimulationRunner` and
*appends* the steady-state event rate to ``BENCH_throughput.json`` at the
repository root — one entry per measurement, oldest first — so successive
PRs can compare like for like and CI can plot the whole history.

Two rates are recorded:

* ``events_per_second`` — the default (oracle walk mode) engine, the figure
  the throughput acceptance gates track across PRs;
* ``walk.hops_per_second`` — a shorter run in ``WalkMode.SIMULATED``, where
  every ``randCl`` walk is simulated on the hop engine
  (``repro.walks.kernel``, an exchange pass's walks as one batch); this is the
  walk engine's own throughput inside the protocol.

It also records ``oracle_curve``: the cost of an oracle-walk churn event as
the population grows, one row per ``N`` in ``CURVE_SIZES`` (the initial
population, at a fixed ``CURVE_MAX_SIZE`` so that cluster sizes stay put and
only the cluster count grows).  Each row gives the wall time per event
(``us_per_event``), the exchange rounds per event (``rounds_per_event``: a
join exchanges its host, a leave its cluster and then every cluster that
traded with it) and the swaps per round (``swaps_per_round``), so a change
to the exchange pass can be read as per-round overhead against per-swap
work, and its scaling in ``N`` checked.

And ``simwalk_curve``: the cost of a simulated-walk churn event as the
population grows, one row per initial population in ``SIMWALK_SIZES`` (at
``MAX_SIZE``, so the overlay grows from 8 to 111 clusters and its largest
degree from 3 to 38).  Each row gives the wall time per event
(``us_per_event``), the walks an exchange pass draws (``walks_per_pass``:
a join's pass walks once per member of its host, a leave's cascade once per
member of every cluster in it), the share of walks whose batch starts on the
hop engine's vector executor (``vector_share``: batches of at least
``MIN_VECTOR_BATCH`` walks) and the walk hops per event
(``hops_per_event``).

And ``bootstrap_curve``: the wall time of ``NowEngine.bootstrap`` (model
discovery) at each initial population in ``BOOTSTRAP_SIZES``, the median of
``BOOTSTRAP_REPEATS`` runs (``bootstrap_ms``).  Beside it,
``diameter_ms`` times ``KnowledgeGraph.honest_adjacent_diameter`` alone on
the knowledge graph the same bootstrap draws (the model's discovery rounds,
computed for n0 <= 600), outside the timed bootstrap, and
``diameter_share`` is the ratio of the two.

It also verifies the incremental-accounting contract behind the rate: the
node and cluster registries count every full population sweep
(``full_scan_count``), and a churn event must complete with (far) fewer than
``LEGACY_SCANS_PER_EVENT / 2`` sweeps.  Before the incremental counters, one
event cost at least three full sweeps — ``random_member`` rebuilt the active
list and the per-step snapshot recomputed ``byzantine_fractions`` and
``compromised_clusters`` from scratch — so the assertion pins the >= 2x
reduction in per-event full-population scans.

Run standalone (CI writes the JSON artifact this way)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py [--steps N]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import time

import pytest

from repro import EngineConfig, NowEngine
from repro.core.initialization import NowInitializer
from repro.scenarios import CallbackProbe, SimulationRunner
from repro.walks.sampler import WalkMode
from repro.workloads import UniformChurn

from common import fresh_rng, run_once, scaled_parameters, scenario_for

MAX_SIZE = 4096
INITIAL = 300
TAU = 0.15
STEPS = 1200
#: Steps of the (slower) simulated-walk segment measuring walk hops/second.
WALK_STEPS = 300
#: Full population sweeps one churn event cost before incremental accounting:
#: one ``active_nodes`` rebuild in ``random_member`` plus two full
#: ``byzantine_fractions`` / ``compromised_clusters`` recomputations in the
#: per-step snapshot.
LEGACY_SCANS_PER_EVENT = 3.0
#: events/second recorded by the PR 1 measurement of this benchmark.  The
#: walk fast-path PR's >= 3x acceptance gate is checked against the recorded
#: ``speedup_vs_baseline`` in ``BENCH_throughput.json`` (measured on the same
#: machine as the baseline) — it is deliberately *not* asserted in-test,
#: because absolute events/sec depend on the CI runner's speed.
BASELINE_EVENTS_PER_SECOND = 150.9
#: The oracle-walk curve: initial populations, the fixed ``max_size`` they
#: share, and the events run before and during each timed segment.
CURVE_SIZES = (2**10, 2**12, 2**14)
CURVE_MAX_SIZE = 2**16
CURVE_WARMUP = 50
CURVE_EVENTS = 400
#: The simulated-walk curve: initial populations (at ``MAX_SIZE``) and the
#: events run before and during each timed segment.
SIMWALK_SIZES = (300, 1200, 4000)
SIMWALK_WARMUP = 20
SIMWALK_EVENTS = 200
#: The bootstrap curve: initial populations (at ``MAX_SIZE``), the seed, and
#: the runs each median is taken over.
BOOTSTRAP_SIZES = (150, 300, 600)
BOOTSTRAP_SEED = 47
BOOTSTRAP_REPEATS = 5

RESULT_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_throughput.json")


def oracle_curve_point(initial_size: int) -> dict:
    """One row of ``oracle_curve``: uniform churn at ``initial_size`` nodes, oracle walks."""
    scenario = scenario_for(CURVE_MAX_SIZE, initial_size, tau=TAU, seed=47, name="oracle-curve")
    engine = scenario.build_engine()
    runner = SimulationRunner(
        engine, UniformChurn(fresh_rng(48), byzantine_join_fraction=TAU), name="oracle-curve"
    )
    runner.run(CURVE_WARMUP)
    clusters = engine.state.clusters
    rounds_before, swaps_before = clusters.exchange_round_count, clusters.swap_count
    result = runner.run(CURVE_EVENTS)
    rounds = clusters.exchange_round_count - rounds_before
    swaps = clusters.swap_count - swaps_before
    return {
        "n": initial_size,
        "clusters": result.final_cluster_count,
        "events": result.events,
        "us_per_event": 1e6 * result.elapsed_seconds / max(1, result.events),
        "rounds_per_event": rounds / max(1, result.events),
        "swaps_per_round": swaps / max(1, rounds),
    }


def simwalk_curve_point(initial_size: int) -> dict:
    """One row of ``simwalk_curve``: uniform churn at ``initial_size`` nodes, simulated walks.

    The exchange passes and the hop engine's batches of the timed segment
    are counted through wrappers around ``ExchangeProtocol.exchange_all``
    and ``ArrayKernel.run_biased_batch``, which cost well under a
    microsecond per call.
    """
    from repro.core.exchange import ExchangeProtocol
    from repro.walks import kernel

    config = EngineConfig(walk_mode=WalkMode.SIMULATED)
    scenario = scenario_for(
        MAX_SIZE, initial_size, tau=TAU, seed=47, name="simwalk-curve", config=config
    )
    engine = scenario.build_engine()
    hops = CallbackProbe(lambda _engine, report, _step: report.operation.walk_hops, name="hops")
    runner = SimulationRunner(
        engine,
        UniformChurn(fresh_rng(48), byzantine_join_fraction=TAU),
        probes=[hops],
        name="simwalk-curve",
    )
    runner.run(SIMWALK_WARMUP)
    warm_hops = len(hops.values)
    counts = {"passes": 0, "pass_walks": 0, "walks": 0, "vector_walks": 0}
    exchange_all = ExchangeProtocol.exchange_all
    run_biased_batch = kernel.ArrayKernel.run_biased_batch

    def counted_pass(self, cluster_ids, *args, **kwargs):
        counts["passes"] += 1
        clusters = self._state.clusters
        counts["pass_walks"] += sum(len(clusters.get(cid).members) for cid in cluster_ids)
        return exchange_all(self, cluster_ids, *args, **kwargs)

    def counted_batch(self, starts, *args):
        counts["walks"] += len(starts)
        if len(starts) >= kernel.MIN_VECTOR_BATCH:
            counts["vector_walks"] += len(starts)
        return run_biased_batch(self, starts, *args)

    ExchangeProtocol.exchange_all = counted_pass
    kernel.ArrayKernel.run_biased_batch = counted_batch
    try:
        result = runner.run(SIMWALK_EVENTS)
    finally:
        ExchangeProtocol.exchange_all = exchange_all
        kernel.ArrayKernel.run_biased_batch = run_biased_batch
    events = max(1, result.events)
    return {
        "n": initial_size,
        "clusters": result.final_cluster_count,
        "events": result.events,
        "us_per_event": 1e6 * result.elapsed_seconds / events,
        "walks_per_pass": counts["pass_walks"] / max(1, counts["passes"]),
        "vector_share": counts["vector_walks"] / max(1, counts["walks"]),
        "hops_per_event": sum(hops.values[warm_hops:]) / events,
    }


def _median_ms(call) -> float:
    times = []
    for _ in range(BOOTSTRAP_REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def bootstrap_curve_point(initial_size: int) -> dict:
    """One row of ``bootstrap_curve``: a model-discovery bootstrap at ``initial_size`` nodes."""
    params = scaled_parameters(MAX_SIZE, tau=TAU)
    bootstrap_ms = _median_ms(
        lambda: NowEngine.bootstrap(params, initial_size, seed=BOOTSTRAP_SEED)
    )
    # The knowledge graph bootstrap draws first, from the same seed.
    initializer = NowInitializer(params, random.Random(BOOTSTRAP_SEED))
    registry = initializer.create_population(initial_size)
    byzantine = registry.active_byzantine()
    knowledge = initializer._build_bootstrap_graph(registry.active_nodes(), byzantine)
    honest = set(registry.active_nodes()) - byzantine
    diameter_ms = _median_ms(lambda: knowledge.honest_adjacent_diameter(honest))
    return {
        "n": initial_size,
        "discovery_rounds": knowledge.honest_adjacent_diameter(honest),
        "bootstrap_ms": bootstrap_ms,
        "diameter_ms": diameter_ms,
        "diameter_share": diameter_ms / bootstrap_ms,
    }


def run_experiment(steps: int = STEPS, walk_steps: int = WALK_STEPS):
    scenario = scenario_for(MAX_SIZE, INITIAL, tau=TAU, seed=29, name="throughput")
    engine = scenario.build_engine()
    workload = UniformChurn(fresh_rng(30), byzantine_join_fraction=TAU)
    runner = SimulationRunner(engine, workload, name="throughput")

    # Warm-up out of the post-initialization transient, then measure.
    runner.run(min(100, steps // 10))
    scans_before = engine.state.nodes.full_scan_count + engine.state.clusters.full_scan_count
    result = runner.run(steps)
    scans_after = engine.state.nodes.full_scan_count + engine.state.clusters.full_scan_count
    scans_per_event = (scans_after - scans_before) / max(1, result.events)

    # Walk-engine throughput: the same scenario in SIMULATED mode, where the
    # biased CTRWs actually hop across the overlay on the hop engine.
    walk_scenario = scenario_for(
        MAX_SIZE,
        INITIAL,
        tau=TAU,
        seed=29,
        name="throughput-walks",
        config=EngineConfig(walk_mode=WalkMode.SIMULATED),
    )
    walk_engine = walk_scenario.build_engine()
    walk_workload = UniformChurn(fresh_rng(31), byzantine_join_fraction=TAU)
    hops_probe = CallbackProbe(
        lambda _engine, report, _step: report.operation.walk_hops, name="walk-hops"
    )
    walk_runner = SimulationRunner(
        walk_engine, walk_workload, probes=[hops_probe], name="throughput-walks"
    )
    walk_result = walk_runner.run(walk_steps)
    walk_hops = int(sum(hops_probe.values))

    return {
        "benchmark": "engine_throughput",
        "steps": result.steps,
        "events": result.events,
        "elapsed_seconds": result.elapsed_seconds,
        "events_per_second": result.events_per_second,
        "baseline_events_per_second": BASELINE_EVENTS_PER_SECOND,
        "speedup_vs_baseline": result.events_per_second / BASELINE_EVENTS_PER_SECOND,
        "scans_per_event": scans_per_event,
        "legacy_scans_per_event": LEGACY_SCANS_PER_EVENT,
        "final_network_size": result.final_size,
        "final_cluster_count": result.final_cluster_count,
        "max_size": MAX_SIZE,
        "tau": TAU,
        "walk": {
            "mode": "simulated",
            "kernel": "array",
            "steps": walk_result.steps,
            "events": walk_result.events,
            "elapsed_seconds": walk_result.elapsed_seconds,
            "events_per_second": walk_result.events_per_second,
            "hops": walk_hops,
            "hops_per_second": walk_hops / walk_result.elapsed_seconds
            if walk_result.elapsed_seconds > 0
            else 0.0,
        },
        "oracle_curve": {
            "max_size": CURVE_MAX_SIZE,
            "warmup_events": CURVE_WARMUP,
            "points": [oracle_curve_point(size) for size in CURVE_SIZES],
        },
        "simwalk_curve": {
            "max_size": MAX_SIZE,
            "warmup_events": SIMWALK_WARMUP,
            "points": [simwalk_curve_point(size) for size in SIMWALK_SIZES],
        },
        "bootstrap_curve": {
            "max_size": MAX_SIZE,
            "seed": BOOTSTRAP_SEED,
            "repeats": BOOTSTRAP_REPEATS,
            "points": [bootstrap_curve_point(size) for size in BOOTSTRAP_SIZES],
        },
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def load_trajectory(path: str = RESULT_PATH):
    """The recorded measurement list (tolerates the old single-dict format)."""
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        recorded = json.load(handle)
    if isinstance(recorded, dict):
        return [recorded]
    return list(recorded)


def save_result(result, path: str = RESULT_PATH) -> None:
    """Append ``result`` to the trajectory file (never overwrite history).

    The write goes through a temp file + atomic rename
    (:func:`repro.trace.write_json_atomic`), so a benchmark killed
    mid-write cannot corrupt the recorded trajectory: readers see either
    the old history or the new one, never a truncated JSON document.
    """
    from repro.trace import write_json_atomic

    trajectory = load_trajectory(path)
    trajectory.append(result)
    write_json_atomic(path, trajectory, indent=2)


@pytest.mark.experiment("T1")
def test_engine_throughput(benchmark):
    result = run_once(benchmark, lambda: run_experiment(steps=STEPS))
    print(
        f"T1 throughput: {result['events']} events in {result['elapsed_seconds']:.2f}s "
        f"= {result['events_per_second']:.0f} events/s "
        f"({result['speedup_vs_baseline']:.2f}x the PR 1 baseline); "
        f"{result['scans_per_event']:.3f} full-population scans per event "
        f"(legacy floor {LEGACY_SCANS_PER_EVENT}); "
        f"simulated walks: {result['walk']['hops']} hops "
        f"= {result['walk']['hops_per_second']:.0f} hops/s"
    )
    for point in result["oracle_curve"]["points"]:
        print(
            f"  oracle curve N={point['n']}: {point['us_per_event']:.0f} us/event, "
            f"{point['rounds_per_event']:.1f} rounds/event, {point['swaps_per_round']:.1f} swaps/round"
        )
    for point in result["simwalk_curve"]["points"]:
        print(
            f"  simwalk curve n0={point['n']}: {point['us_per_event']:.0f} us/event, "
            f"{point['walks_per_pass']:.0f} walks/pass, vector share "
            f"{point['vector_share']:.2f}, {point['hops_per_event']:.0f} hops/event"
        )
    for point in result["bootstrap_curve"]["points"]:
        print(
            f"  bootstrap curve n0={point['n']}: {point['bootstrap_ms']:.1f} ms, "
            f"diameter {point['diameter_ms']:.2f} ms ({100 * point['diameter_share']:.1f} %)"
        )
    save_result(result)

    assert result["events"] > 0
    assert result["events_per_second"] > 0
    # The simulated walks must actually walk (and be measured).
    assert result["walk"]["hops"] > 0
    assert result["walk"]["hops_per_second"] > 0
    # Every curve point ran events with exchange rounds in them.
    for point in result["oracle_curve"]["points"]:
        assert point["events"] > 0 and point["rounds_per_event"] > 0
    # Every simulated-walk point walked.
    for point in result["simwalk_curve"]["points"]:
        assert point["events"] > 0 and point["hops_per_event"] > 0
    # Every bootstrap point ran the model's diameter (n0 <= 600).
    for point in result["bootstrap_curve"]["points"]:
        assert point["bootstrap_ms"] > 0 and point["discovery_rounds"] > 0
    # The original tentpole claim: at least 2x fewer full-population scans per
    # event than the pre-incremental engine (which needed >= 3 per event).
    assert result["scans_per_event"] <= LEGACY_SCANS_PER_EVENT / 2.0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="engine throughput benchmark")
    parser.add_argument("--steps", type=int, default=STEPS)
    parser.add_argument("--walk-steps", type=int, default=WALK_STEPS)
    parser.add_argument("--out", type=str, default=RESULT_PATH)
    args = parser.parse_args()
    outcome = run_experiment(steps=args.steps, walk_steps=args.walk_steps)
    save_result(outcome, args.out)
    print(json.dumps(outcome, indent=2, sort_keys=True))
