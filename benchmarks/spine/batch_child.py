"""One batch workload in a fresh process, through the program's public API.

``python batch_child.py '<spec json>'`` runs one pass of ``churn-oracle`` or
``churn-simwalk-trace`` and prints one JSON object on its last stdout line.
The parent (``batch.py``) launches it; a fresh process per pass keeps import
time, bootstrap and allocator state inside ``setup_s`` and out of the next
pass.  The program receives only generated inputs: a ``Scenario`` built from
the spec, driven by ``SimulationRunner`` / ``record_scenario`` /
``replay_trace``.

Timing is taken by an inline probe — the program's own observation surface
— that stamps ``perf_counter`` after every applied event; per-event times
are differences of those stamps.
"""

from __future__ import annotations

import json
import os
import sys
import time


def peak_rss_mb(pid: str = "self") -> float:
    """``VmHWM`` of a process in MB (0 when it is gone or has no field)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def main(spec: dict) -> dict:
    from repro.scenarios import CorruptionTrajectoryProbe, CostLedgerProbe, Probe, Scenario
    from repro.trace import record_scenario, replay_trace, state_hash

    from spans import Recorder, probe_leaves

    class StampProbe(Probe):
        """Stamps every applied event and sums its protocol costs."""

        name = "spine-stamps"
        inline = True

        def __init__(self) -> None:
            self.ready_at = 0.0
            self.stamps = []
            self.messages = self.rounds = self.hops = 0

        def on_start(self, engine) -> None:
            self.ready_at = time.monotonic()

        def on_step(self, engine, report, step_index: int) -> None:
            self.stamps.append(time.perf_counter())
            operation = report.operation
            self.messages += operation.messages
            self.rounds += operation.rounds
            self.hops += operation.walk_hops

    recorder = Recorder() if spec["traced"] else None
    if recorder is not None:
        recorder.install()
    scenario = Scenario.from_dict(spec["scenario"])
    stamps = StampProbe()
    out: dict = {"workload": spec["workload"]}
    payloads = []
    warmup = spec["warmup_events"]
    if spec["workload"] == "churn-oracle":
        runner = scenario.build_runner(
            probes=[CorruptionTrajectoryProbe(), CostLedgerProbe(), stamps]
        )
        engine = runner.engine
        out["setup_s"] = time.monotonic() - spec["launched_at"]
        if spec["setup_only"]:
            return out
        for steps in (warmup, spec["events"]):
            if runner.run(steps).events != steps:
                raise RuntimeError(f"the runner applied fewer than {steps} events")
    else:
        workdir = spec["workdir"]
        trace_path = os.path.join(workdir, f"trace-{os.getpid()}.bin")
        session = record_scenario(
            scenario,
            trace_path=trace_path,
            trace_format="binary",
            index_every=spec["index_every"],
            checkpoint_path=os.path.join(workdir, f"ckpt-{os.getpid()}.json"),
            checkpoint_every=spec["checkpoint_every"],
            probes=[stamps],
        )
        engine = session.engine
        out["setup_s"] = stamps.ready_at - spec["launched_at"]
        if spec["setup_only"]:
            return out
        if len(stamps.stamps) != scenario.steps:
            raise RuntimeError(f"recorded {len(stamps.stamps)} of {scenario.steps} events")
        out["trace_bytes"] = os.path.getsize(trace_path)
        if recorder is not None:
            # Phase 2 re-applies every event: keep its spans apart.
            payloads.append(recorder.payload("record"))
            recorder.reset()
        if spec["replay"]:
            started = time.perf_counter()
            replay = replay_trace(trace_path)
            out["replay_seconds"] = time.perf_counter() - started
            out["replay_events"] = replay.events_applied
            out["replay_hash_checks"] = replay.hash_checks
            out["replay_ok"] = bool(
                replay.ok
                and replay.events_applied == scenario.steps
                and replay.final_hash == session.final_state_hash
            )
            out["replay_divergence"] = None if replay.ok else str(replay.divergence)

    # An event's time runs from the previous event's stamp; the warm-up
    # events are applied, counted and left out of the timings.
    timed = stamps.stamps
    out["applied_events"] = len(timed)
    out["event_seconds"] = [
        timed[index] - timed[index - 1] for index in range(warmup, len(timed))
    ]
    out["messages"] = stamps.messages
    out["rounds"] = stamps.rounds
    out["hops"] = stamps.hops
    out["state_hash"] = state_hash(engine)
    # Structure only: the one-third corruption bound is the paper's
    # with-high-probability claim, and at these cluster sizes some seeds
    # cross it — a measurement (worst_byzantine_fraction), not a defect.
    invariants = engine.check_invariants(check_honest_majority=False)
    out["worst_byzantine_fraction"] = invariants.worst_byzantine_fraction
    out["invariants_hold"] = bool(invariants.holds)
    out["invariant_violations"] = [str(item) for item in invariants.violations]
    out["peak_rss_mb"] = peak_rss_mb()
    if recorder is not None:
        recorder.uninstall()
        payloads.append(recorder.payload("replay" if payloads else "run"))
        payloads[0]["extra"]["leaves"] = probe_leaves(engine)
        out["spans"] = payloads
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
