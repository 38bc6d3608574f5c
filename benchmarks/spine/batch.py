"""The two batch workloads, parent side: launch passes, check, estimate.

Every pass runs in a fresh child process on the *same* seed, so the passes
apply identical events and each event is timed once per pass.  Noise on a
shared box is one-sided — a neighbour only ever makes an event slower — so an
event's cost is the **minimum over the passes**, and the reported numbers are
built from those per-event minima over *all* timed events (no cherry-picked
windows: which events are cheap depends on the seed).

``churn-simwalk-trace`` does this for two scenario seeds derived from
``--seed`` and pools their events: at n0=300 the shape of the few clusters is
the seed's and moves the cost of an event by a sixth.

The repeat is also the determinism check: the final state hashes of a seed's
passes must be identical.  ``churn-simwalk-trace`` additionally replays the
first pass's trace, which re-derives the run from the seed and verifies every
index frame.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

import plan
from estimators import percentile, repeat_gap
from spans import layer_table, point_metrics, root_seconds, self_times

HERE = os.path.dirname(os.path.abspath(__file__))


def launch_child(spec: Dict[str, Any], env: Dict[str, str]) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter and return its result object."""
    spec = dict(spec, launched_at=time.monotonic())
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "batch_child.py"), json.dumps(spec)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{spec['workload']} child exited with {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spec(workload: str, seed: int, seconds: float, traced: bool, workdir: str) -> Dict[str, Any]:
    config = plan.BATCH[workload]
    events = plan.batch_events(workload, seconds, traced)
    scenario = dict(config["scenario"], seed=seed, steps=config["warmup_events"] + events)
    return {
        "workload": workload,
        "scenario": scenario,
        "traced": False,
        "setup_only": False,
        "replay": False,
        "workdir": workdir,
        "events": events,
        "warmup_events": config["warmup_events"],
        "index_every": config.get("index_every"),
        "checkpoint_every": config.get("checkpoint_every"),
    }


def _check_passes(passes: List[Dict[str, Any]], errors: List[str]) -> None:
    for index, result in enumerate(passes):
        if not result["invariants_hold"]:
            errors.append(
                f"pass {index}: check_invariants failed: {result['invariant_violations'][:3]}"
            )
        if "replay_ok" in result and not result["replay_ok"]:
            errors.append(f"pass {index}: replay diverged: {result['replay_divergence']}")
    hashes = {result["state_hash"] for result in passes}
    if len(hashes) > 1:
        errors.append(
            f"same-seed passes ended in {len(hashes)} different states: "
            + ", ".join(sorted(value[:12] for value in hashes))
        )


def quiet_event_seconds(passes: List[Dict[str, Any]]) -> List[float]:
    """Each event's cost: the minimum of its times over the same-seed passes."""
    return [min(times) for times in zip(*(result["event_seconds"] for result in passes))]


def round_totals(groups: List[List[Dict[str, Any]]]) -> List[float]:
    """Total event time of each round (one pass of every seed)."""
    return [
        sum(sum(result["event_seconds"]) for result in passes) for passes in zip(*groups)
    ]


def pass_spread(totals: List[float]) -> float:
    """How far the rounds' total times disagree, over their median."""
    return (max(totals) - min(totals)) / statistics.median(totals)


def run_untraced(
    workload: str, seed: int, seconds: float, workdir: str, env: Dict[str, str]
) -> Dict[str, Any]:
    """The end-to-end run: the timed passes, the set-up samples, the checks."""
    config = plan.BATCH[workload]
    specs = [
        _spec(workload, seed + index * plan.SEED_STRIDE, seconds, traced=False, workdir=workdir)
        for index in range(config["seeds"])
    ]
    # Round by round (one pass of every seed), so that the passes of one seed
    # lie apart in time; the first pass of the first seed is also replayed.
    launches = [
        (index, dict(spec, replay=config["replays"] and index == 0 and round_ == 0))
        for round_ in range(config["passes"])
        for index, spec in enumerate(specs)
    ]
    # Set-up is sampled by launches that stop where a pass's first event
    # would start (zero steps: the same runner or recorder, nothing applied),
    # dealt out before, between and after the passes so that they do not all
    # see the box in the one state.
    idle = dict(specs[0], setup_only=True, scenario=dict(specs[0]["scenario"], steps=0))
    slots = len(launches) + 1
    groups: List[List[Dict[str, Any]]] = [[] for _ in specs]
    setups = []
    for slot in range(slots):
        for _ in range(slot, plan.SETUP_SAMPLES, slots):
            setups.append(launch_child(idle, env)["setup_s"])
        if slot < len(launches):
            index, spec = launches[slot]
            groups[index].append(launch_child(spec, env))
    errors: List[str] = []
    for passes in groups:
        _check_passes(passes, errors)

    quiet = [cost for passes in groups for cost in quiet_event_seconds(passes)]
    events = len(quiet) * config["passes"]
    firsts = [passes[0] for passes in groups]
    applied = sum(first["applied_events"] for first in firsts)
    totals = round_totals(groups)
    detail = {
        "events_per_s": len(quiet) / sum(quiet),
        "events_per_s_raw": events / sum(totals),
        "event_p50_ms": percentile(quiet, 0.50) * 1000.0,
        "event_p75_ms": percentile(quiet, 0.75) * 1000.0,
        "event_p99_ms": percentile(quiet, 0.99) * 1000.0,
        "setup_s": statistics.median(setups),
        "setup_samples": setups,
        "peak_rss_mb": max(result["peak_rss_mb"] for passes in groups for result in passes),
        "failed_share": 1.0 if errors else 0.0,
        "window_spread": pass_spread(totals),
        "repeat_gap": repeat_gap(totals),
        "events": events,
        "state_hash": firsts[0]["state_hash"],
        "worst_byzantine_fraction": max(first["worst_byzantine_fraction"] for first in firsts),
        "messages_per_op": sum(first["messages"] for first in firsts) / applied,
        "rounds_per_op": sum(first["rounds"] for first in firsts) / applied,
        "hops_per_op": sum(first["hops"] for first in firsts) / applied,
    }
    replayed = firsts[0].get("replay_events", 0)
    if replayed:
        detail["replay_events_per_s"] = replayed / firsts[0]["replay_seconds"]
        detail["trace_bytes_per_op"] = firsts[0]["trace_bytes"] / firsts[0]["applied_events"]
        detail["replay_hash_checks"] = firsts[0]["replay_hash_checks"]
    return {
        "attempted": events + replayed,
        "failed": (events + replayed) if errors else 0,
        "errors": errors,
        # The per-event minimum stands when a second round was as quiet as
        # the quietest.
        "noisy": ["ops_per_s"] if detail["repeat_gap"] > plan.MAX_NOISE else [],
        "detail": detail,
        "end_to_end": {
            "setup_s": detail["setup_s"],
            "ops_per_s": detail["events_per_s"],
            "peak_rss_mb": detail["peak_rss_mb"],
        },
    }


def run_traced(
    workload: str, seed: int, seconds: float, workdir: str, env: Dict[str, str]
) -> Dict[str, Any]:
    """The per-layer run: one untraced reference pass, one traced pass."""
    replays = plan.BATCH[workload]["replays"]
    spec = _spec(workload, seed, seconds, traced=True, workdir=workdir)
    plain = launch_child(dict(spec, replay=replays), env)
    traced = launch_child(dict(spec, replay=replays, traced=True), env)
    errors: List[str] = []
    _check_passes([plain, traced], errors)

    payloads = traced["spans"]
    record = payloads[0]
    leaves = record["extra"]["leaves"]
    ops = traced["applied_events"]
    table = layer_table([record], leaves)
    if replays:
        # Phase 2 re-applies every event; only its own two points belong to it.
        replay_table = layer_table([payloads[1]], leaves)
        for name in ("trace.decode", "trace.replay"):
            table[name] = replay_table[name]
    plain_rate = len(plain["event_seconds"]) / sum(plain["event_seconds"])
    traced_rate = len(traced["event_seconds"]) / sum(traced["event_seconds"])
    root = root_seconds(record["spans"], "scenarios.runner")
    runner_self = self_times(record["spans"]).get("scenarios.runner", [0, 0.0])[1]

    layers = point_metrics(table, leaves, ops)
    layers.update(
        {
            "core.messages_per_op": traced["messages"] / ops,
            "core.rounds_per_op": traced["rounds"] / ops,
            "walks.hops_per_op": traced["hops"] / ops,
            "walks.hops_per_s": traced["hops"] / ops * plain_rate,
            "scenarios.event_p75_ms": percentile(plain["event_seconds"], 0.75) * 1000.0,
            "trace.bytes_per_op": traced.get("trace_bytes", 0) / ops,
            "trace.replay_events_per_s": (
                plain["replay_events"] / plain["replay_seconds"] if replays else 0.0
            ),
            "spine.trace_overhead_share": 1.0 - traced_rate / plain_rate,
            "spine.window_spread": pass_spread(round_totals([[plain, traced]])),
            "spine.attributed_share": 1.0 - runner_self / root if root > 0 else 0.0,
            "spine.failed_share": 1.0 if errors else 0.0,
        }
    )
    events = len(plain["event_seconds"]) + len(traced["event_seconds"])
    return {
        "attempted": events,
        "failed": events if errors else 0,
        "errors": errors,
        "detail": {"missing_points": record["missing"], "state_hash": traced["state_hash"]},
        "per_layer": layers,
    }
