"""T2 — Trace codec throughput: bytes/event and record+replay rates.

This benchmark maintains the observation-pipeline performance trajectory:
it records one size-stable T1-style churn scenario three ways —

* ``jsonl-inline``     — the pre-streaming baseline: JSONL trace flushed
  every frame, trajectory probes running inline per event (the observation
  path as it was before the ObservationBus / binary codec),
* ``jsonl-buffered``   — JSONL with batched writes and buffered probes,
* ``binary-buffered``  — the struct-packed binary codec with batched writes
  and buffered probes,

then replays and decodes each trace, and appends the measurements to
``BENCH_throughput.json`` at the repository root (the append-only
trajectory file) under ``"trace_codec"``.  Every configuration records
through :func:`~repro.trace.record_scenario` with two trajectory probes
(corruption + size) attached, so the recorded events/s is the *end-to-end
observed* rate the acceptance gates track, not a bare-engine rate.

Checked invariants:

* all three traces decode to identical frame sequences and replay with
  zero divergence,
* the binary trace is at least 4x smaller than the JSONL trace,
* binary decode is not slower than JSONL decode.

Run standalone (CI writes the JSON artifact this way)::

    PYTHONPATH=src python benchmarks/bench_trace_codec.py [--steps N]

The acceptance measurement for the streaming-pipeline PR was produced with
``--steps 100000`` (a >=10^5-event horizon); the default is CI-sized.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import pytest

from repro.scenarios import (
    CallbackProbe,
    CorruptionTrajectoryProbe,
    ObservationBus,
    SizeTrajectoryProbe,
)
from repro.trace import TraceReader, TraceWriter, record_scenario, replay_trace

from common import run_once, scenario_for

MAX_SIZE = 4096
INITIAL = 300
TAU = 0.15
STEPS = 3000
SEED = 29

#: The three observation-path configurations being compared.
CONFIGS = (
    # label, trace format, flush_every, buffered probes
    ("jsonl-inline", "jsonl", 1, False),
    ("jsonl-buffered", "jsonl", 256, True),
    ("binary-buffered", "binary", 256, True),
)

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_throughput.json"
)


def record_one(path: str, steps: int, trace_format: str, flush_every: int, buffered: bool):
    """Record the benchmark scenario once with the given observation config."""
    scenario = scenario_for(MAX_SIZE, INITIAL, tau=TAU, seed=SEED, name="codec", steps=steps)
    session = record_scenario(
        scenario,
        trace_path=path,
        index_every=200,
        probes=[
            CorruptionTrajectoryProbe(inline=not buffered),
            SizeTrajectoryProbe(inline=not buffered),
        ],
        trace_format=trace_format,
        flush_every=flush_every,
    )
    # The run loop's own wall time: bootstrap and the final seal stay outside.
    return session.result, session.result.elapsed_seconds


def observation_micro(out_dir: str, events: int = 20000):
    """Time the observation path alone: publish -> probes -> trace writer.

    End-to-end events/s is dominated by ``apply_event`` (milliseconds per
    event at benchmark scale), which drowns the observation pipeline's
    microseconds in run-to-run noise.  This measurement replays a captured
    stream of real per-step reports through the bus + probes + trace writer
    (what the runner's recorder hook does per event) with the engine taken
    out of the loop, so the inline/per-frame-flush baseline and the buffered
    pipeline can be compared directly.
    """
    scenario = scenario_for(
        MAX_SIZE, INITIAL, tau=TAU, seed=SEED, name="codec-micro", steps=400
    )
    engine = scenario.build_engine()
    captured = CallbackProbe(lambda _engine, report, _step: report, name="reports")
    scenario.build_runner(probes=[captured], engine=engine).run(400)
    reports = captured.values

    rates = {}
    for label, trace_format, flush_every, buffered in CONFIGS:
        path = os.path.join(out_dir, f"bench-codec-micro-{label}.trace")
        probes = [
            CorruptionTrajectoryProbe(inline=not buffered),
            SizeTrajectoryProbe(inline=not buffered),
        ]
        # No index frames: no O(n) state hashing inside the timed loop, the
        # per-event codec cost is what is being measured.
        writer = TraceWriter(path, trace_format=trace_format, flush_every=flush_every)
        writer.write_header(scenario.to_dict())
        bus = ObservationBus(engine, probes)
        bus.on_start()
        started = time.perf_counter()
        for index in range(events):
            writer.write_record(bus.publish(reports[index % len(reports)], index + 1, True))
        bus.flush()
        elapsed = time.perf_counter() - started
        writer.close(engine.state_hash())
        os.unlink(path)
        rates[label] = events / elapsed if elapsed > 0 else 0.0
    return rates


def run_experiment(steps: int = STEPS, out_dir: str = "/tmp"):
    runs = {}
    frame_sets = []
    for label, trace_format, flush_every, buffered in CONFIGS:
        path = os.path.join(out_dir, f"bench-codec-{label}.trace")
        result, record_elapsed = record_one(path, steps, trace_format, flush_every, buffered)
        size = os.path.getsize(path)

        # Best of three decode passes: the gated decode-speed ratio must not
        # flake on one unlucky scheduling of a sub-second timing.
        decode_elapsed = float("inf")
        for _ in range(3):
            decode_started = time.perf_counter()
            reader = TraceReader(path)
            decode_elapsed = min(decode_elapsed, time.perf_counter() - decode_started)
        frame_sets.append(reader.frames)

        replay_started = time.perf_counter()
        replay_report = replay_trace(reader)
        replay_elapsed = time.perf_counter() - replay_started

        runs[label] = {
            "trace_format": trace_format,
            "flush_every": flush_every,
            "buffered_probes": buffered,
            "events": result.events,
            "bytes": size,
            "bytes_per_event": size / max(1, result.events),
            "record_elapsed_seconds": record_elapsed,
            "record_events_per_second": result.events / record_elapsed if record_elapsed > 0 else 0.0,
            "decode_elapsed_seconds": decode_elapsed,
            "decode_frames_per_second": len(reader.frames) / decode_elapsed if decode_elapsed > 0 else 0.0,
            "replay_ok": replay_report.ok,
            "replay_elapsed_seconds": replay_elapsed,
            "replay_events_per_second": (
                replay_report.events_applied / replay_elapsed if replay_elapsed > 0 else 0.0
            ),
        }
        os.unlink(path)

    baseline = runs["jsonl-inline"]
    binary = runs["binary-buffered"]
    buffered = runs["jsonl-buffered"]
    micro = observation_micro(out_dir)
    return {
        "benchmark": "trace_codec",
        "trace_codec": runs,
        "observation_pipeline_events_per_second": micro,
        "observation_pipeline_speedup_vs_inline": {
            label: rate / micro["jsonl-inline"] for label, rate in micro.items()
        },
        "steps": steps,
        "max_size": MAX_SIZE,
        "tau": TAU,
        "frames_identical_across_formats": all(
            frames == frame_sets[0] for frames in frame_sets[1:]
        ),
        "binary_size_ratio_vs_jsonl": baseline["bytes"] / binary["bytes"],
        "buffered_record_speedup_vs_inline": (
            buffered["record_events_per_second"] / baseline["record_events_per_second"]
        ),
        "binary_record_speedup_vs_inline": (
            binary["record_events_per_second"] / baseline["record_events_per_second"]
        ),
        "binary_decode_speedup_vs_jsonl": (
            binary["decode_frames_per_second"] / baseline["decode_frames_per_second"]
        ),
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


@pytest.mark.experiment("T2")
def test_trace_codec_throughput(benchmark, tmp_path):
    result = run_once(benchmark, lambda: run_experiment(steps=STEPS, out_dir=str(tmp_path)))
    runs = result["trace_codec"]
    print(
        "T2 trace codec: "
        f"jsonl {runs['jsonl-inline']['bytes_per_event']:.0f} B/ev, "
        f"binary {runs['binary-buffered']['bytes_per_event']:.1f} B/ev "
        f"({result['binary_size_ratio_vs_jsonl']:.1f}x smaller); "
        f"record {runs['jsonl-inline']['record_events_per_second']:.0f} -> "
        f"{runs['binary-buffered']['record_events_per_second']:.0f} ev/s; "
        f"decode {result['binary_decode_speedup_vs_jsonl']:.1f}x faster; "
        f"observation path alone "
        f"{result['observation_pipeline_speedup_vs_inline']['binary-buffered']:.1f}x "
        "the inline/per-frame-flush baseline"
    )
    from bench_engine_throughput import save_result

    save_result(result)

    # Every configuration replays with zero divergence and decodes to the
    # same frames — the codec never trades correctness for size.
    assert result["frames_identical_across_formats"]
    for label, run in runs.items():
        assert run["replay_ok"], label
        assert run["events"] == STEPS
    # The headline acceptance: binary traces are >= 4x smaller than JSONL.
    assert result["binary_size_ratio_vs_jsonl"] >= 4.0
    # Binary decode must not be slower than JSONL decode.
    assert result["binary_decode_speedup_vs_jsonl"] >= 1.0
    # The buffered binary pipeline beats the inline/per-frame-flush baseline
    # on the isolated observation path (measured ~1.5x; the jsonl-buffered
    # configuration is recorded but not gated — same serialiser as the
    # baseline, so its margin is within CI noise).
    assert result["observation_pipeline_speedup_vs_inline"]["binary-buffered"] > 1.0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="trace codec benchmark")
    parser.add_argument("--steps", type=int, default=STEPS)
    parser.add_argument("--out", type=str, default=RESULT_PATH)
    parser.add_argument("--tmp-dir", type=str, default="/tmp")
    args = parser.parse_args()
    outcome = run_experiment(steps=args.steps, out_dir=args.tmp_dir)
    from bench_engine_throughput import save_result

    save_result(outcome, args.out)
    print(json.dumps(outcome, indent=2, sort_keys=True))
