"""T1c — Sharded engine throughput: worker-process scaling of one run.

PR 7 made one scenario's population fan out across worker processes while
staying bit-identical for every worker count; PR 8 pipelined the coordinator
(route window *k+1* while the workers execute window *k*) and packed the
wire protocol.  This benchmark measures the same sharded scenario at 1, 2
and 4 worker processes next to the classic single-engine run and a
single-worker run on the serial reference loop of
``tests/reference_loop.py`` (no routing ahead: the ``unpipelined``
row), and *appends* the rates to
``BENCH_throughput.json`` — same trajectory file, same append-only
discipline as ``bench_engine_throughput.py`` — under ``sharded``.

Each sharded run records the coordinator's **per-phase wall-time breakdown**
(``route`` / ``serialize`` / ``worker_execute`` / ``merge`` / ``idle``) so
speedup claims are profile-backed: scaling shows up as ``idle`` shrinking
while ``worker_execute`` (an aggregate across processes) holds, and a
routing-bound run shows up as ``route`` dominating.

Speedups are reported two ways and annotated honestly:

* ``speedup_vs_single_process`` — against the 1-worker *sharded* run (the
  process-scaling claim);
* ``speedup_vs_classic`` — against the classic single-engine run (what a
  user actually gains over not sharding at all);
* ``oversubscribed`` — set when the run used more workers than the machine
  has cores; such records cannot show process scaling and must not be read
  as scaling failures.

Asserted in-test: every configuration applies events, every phase key is
present, and the composite state hash is identical across worker counts
*and* the serial loop (the determinism contract, on the benchmark's own
run).  The multi-worker speedup is recorded but deliberately not asserted —
it depends on the runner's core count.  The acceptance target — the
4-worker rate >= 1.6x the single-worker sharded rate — is checked against
the recorded trajectory from a multi-core CI runner, like the other
absolute-throughput gates.

Run standalone (CI writes the JSON artifact this way)::

    PYTHONPATH=src python benchmarks/bench_sharded_engine.py [--initial-size N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import pytest

from repro import Scenario
from repro.shard import PHASE_KEYS
from repro.trace import record_scenario

from bench_engine_throughput import save_result

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from reference_loop import serial_record  # noqa: E402  (the serial reference loop)

MAX_SIZE = 4096
INITIAL = 1200
TAU = 0.12
STEPS = 800
SHARDS = 4
WORKER_COUNTS = (1, 2, 4)


def _scenario(initial_size: int, steps: int, shards: int) -> Scenario:
    return Scenario(
        name="sharded-throughput",
        max_size=MAX_SIZE,
        initial_size=initial_size,
        tau=TAU,
        seed=37,
        steps=steps,
        workload={"kind": "uniform"},
        shards=shards,
    )


def _measure_sharded(
    initial_size: int, steps: int, shards: int, workers: int, pipeline: bool = True
):
    # The entry point `run-scenario --shards` runs (the scenario's shards
    # field picks the backend, workers are an execution choice), or the
    # serial reference loop when ``pipeline`` is off.
    record = record_scenario if pipeline else serial_record
    session = record(_scenario(initial_size, steps, shards), workers=workers)
    result = session.result
    coordinator = session.engine
    return {
        "workers": coordinator.workers,
        "pipeline": pipeline,
        "events": result.events,
        "elapsed_seconds": result.elapsed_seconds,
        "events_per_second": result.events_per_second,
        "final_network_size": result.final_size,
        "state_hash": session.final_state_hash,
        "windows_pipelined": coordinator.windows_pipelined,
        "phase_seconds": {
            key: round(coordinator.phase_times[key], 6) for key in PHASE_KEYS
        },
        "oversubscribed": coordinator.workers > (os.cpu_count() or 1),
    }


def run_experiment(
    initial_size: int = INITIAL,
    steps: int = STEPS,
    shards: int = SHARDS,
    worker_counts=WORKER_COUNTS,
):
    # Classic single-engine reference: same population, same workload, no
    # sharding — what the sharded run's overhead and scaling compare against.
    classic = record_scenario(_scenario(initial_size, steps, shards=0)).result
    classic_rate = classic.events_per_second

    runs = [
        _measure_sharded(initial_size, steps, shards, workers)
        for workers in sorted(set(min(workers, shards) for workers in worker_counts))
    ]
    # The serial-loop reference: routing ahead is an execution choice, so its
    # hash must match, and its rate isolates what the overlap itself buys.
    unpipelined = _measure_sharded(initial_size, steps, shards, 1, pipeline=False)
    single = runs[0]["events_per_second"]

    def _speedups(run):
        return dict(
            run,
            speedup_vs_single_process=(
                run["events_per_second"] / single if single > 0 else 0.0
            ),
            speedup_vs_classic=(
                run["events_per_second"] / classic_rate if classic_rate > 0 else 0.0
            ),
        )

    hashes = {run["state_hash"] for run in runs} | {unpipelined["state_hash"]}
    return {
        "benchmark": "sharded_engine",
        "max_size": MAX_SIZE,
        "initial_size": initial_size,
        "tau": TAU,
        "steps": steps,
        "shards": shards,
        "cpu_count": os.cpu_count(),
        "classic": {
            "events": classic.events,
            "elapsed_seconds": classic.elapsed_seconds,
            "events_per_second": classic_rate,
        },
        "sharded": {
            "workers": [_speedups(run) for run in runs],
            "unpipelined": _speedups(unpipelined),
            "hash_identical_across_workers": len(hashes) == 1,
        },
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


@pytest.mark.experiment("T1c")
def test_sharded_engine_throughput(benchmark):
    from common import run_once

    result = run_once(
        benchmark, lambda: run_experiment(initial_size=600, steps=300)
    )
    per_worker = ", ".join(
        f"{run['workers']}w={run['events_per_second']:.0f}ev/s"
        for run in result["sharded"]["workers"]
    )
    print(
        f"T1c sharded throughput ({result['cpu_count']} cpus): "
        f"classic {result['classic']['events_per_second']:.0f} ev/s; {per_worker}; "
        f"unpipelined 1w={result['sharded']['unpipelined']['events_per_second']:.0f}ev/s"
    )
    save_result(result)

    assert result["classic"]["events"] > 0
    for run in result["sharded"]["workers"] + [result["sharded"]["unpipelined"]]:
        assert run["events"] > 0
        assert run["events_per_second"] > 0
        assert run["speedup_vs_classic"] > 0
        # The profile-backed breakdown every record must carry.
        assert set(run["phase_seconds"]) == set(PHASE_KEYS)
        assert "oversubscribed" in run
    # The determinism contract on the benchmark's own run: every worker
    # count and the serial loop produced the same composite state hash.
    assert result["sharded"]["hash_identical_across_workers"]
    assert result["sharded"]["unpipelined"]["windows_pipelined"] == 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="sharded engine throughput benchmark")
    parser.add_argument("--initial-size", type=int, default=INITIAL)
    parser.add_argument("--steps", type=int, default=STEPS)
    parser.add_argument("--shards", type=int, default=SHARDS)
    args = parser.parse_args()
    outcome = run_experiment(
        initial_size=args.initial_size, steps=args.steps, shards=args.shards
    )
    save_result(outcome)
    print(json.dumps(outcome, indent=2, sort_keys=True))
