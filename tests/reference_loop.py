"""The batch loop without routing ahead, kept as the route-ahead oracle.

``repro.scenarios.runner.run_windows`` takes window *k+1*'s send half before
window *k*'s receive half whenever it can.  :func:`serial_run` is the same
loop written plainly over the shard coordinator's two window halves: each
window is dispatched, collected and recorded before the next is pulled, so
nothing is ever in flight under a hash, a snapshot or a stop condition.
Routing ahead is an execution choice, like the worker count, so every run
must match this one bit for bit.  ``tests/test_shard_pipeline.py`` and
``tests/test_batch_sessions.py`` compare against it, and
``benchmarks/bench_sharded_engine.py`` times :func:`serial_record` as its
``unpipelined`` row.
"""

from __future__ import annotations

import time

from repro.scenarios.runner import RunResult
from repro.shard import ShardCoordinator
from repro.trace.session import Recorder, SessionResult


def serial_run(coordinator, steps, recorder=None) -> RunResult:
    """The batch loop without routing ahead: each window dispatched, collected
    and recorded before the next is pulled (the route-ahead oracle)."""
    bus = coordinator.bus
    bus.sync(coordinator.probes)
    bus.on_start()
    observe = bool(bus.buffered_probes or recorder is not None or coordinator.stop_conditions)
    pull = coordinator.pull(steps)
    peak = 0.0
    stop_reason = "steps exhausted"
    started_at = time.perf_counter()
    try:
        while not pull.done:
            records = coordinator.serve_collect(coordinator.serve_dispatch(pull, observe))
            if recorder is not None:
                recorder.window(records)
            stopped = coordinator.stopped
            if stopped is not None:
                records = records[: stopped[0]]
            peak = max([peak, coordinator.merger.worst_fraction] + [r.worst_fraction for r in records])
            if stopped is not None:
                stop_reason = stopped[1]
                break
    finally:
        bus.flush()
    elapsed = time.perf_counter() - started_at
    status = coordinator.status()
    return RunResult(
        scenario=coordinator.scenario.name,
        steps=pull.steps,
        events=pull.steps - pull.idle,
        idle_steps=pull.idle,
        elapsed_seconds=elapsed,
        final_size=status["network_size"],
        final_cluster_count=status["cluster_count"],
        final_worst_fraction=status["worst_byzantine_fraction"],
        peak_worst_fraction=peak,
        compromised_clusters=coordinator.merger.compromised(),
        stop_reason="source idle" if pull.source_idle else stop_reason,
        probes={probe.name: probe.result() for probe in coordinator.probes},
        shards=coordinator.shards,
    )


def serial_record(scenario, workers=1, probes=(), **outputs) -> SessionResult:
    """:func:`repro.trace.record_scenario` on :func:`serial_run` (sharded
    scenarios, fresh runs); ``outputs`` are the :class:`Recorder`'s."""
    with ShardCoordinator(scenario, workers=workers, probes=probes) as coordinator:
        recorder = Recorder(scenario, coordinator, **outputs)
        result = serial_run(coordinator, scenario.steps, recorder)
        final_hash = recorder.seal(ok=True)
    return SessionResult(result, coordinator, final_hash, recorder.trace_path, recorder.checkpoint_path)
