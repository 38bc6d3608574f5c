"""The two service workloads: a real ``repro serve`` subprocess under load.

The server is the program as a user starts it (``python -m repro.cli serve``,
or the same entry point behind ``traced_serve.py`` for the traced run); this
file launches it, drives it with ``driver.py`` from a separate process,
checks every response, shuts it down through the protocol and — for the
recording workload — replays the trace it left behind.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import plan
from batch_child import peak_rss_mb
from driver import ClosedResult, OpenLoopDriver, Phase, PhaseResult, rung_summary
from estimators import repeat_gap, spread
from spans import layer_table, point_metrics, probe_leaves

HERE = os.path.dirname(os.path.abspath(__file__))
SPAWN_TIMEOUT = 60.0


class Server:
    """One ``repro serve`` subprocess and the driver connected to it."""

    def __init__(
        self,
        workload: str,
        seed: int,
        workdir: str,
        env: Dict[str, str],
        tag: str,
        spans_dir: Optional[str] = None,
    ) -> None:
        config = plan.SERVE[workload]
        self.record_path = os.path.join(workdir, f"{tag}.trace.bin") if config["records"] else None
        args = ["--seed", str(seed), "serve", "--port", "0", *config["serve_args"]]
        if self.record_path:
            args += ["--record", self.record_path, "--trace-format", "binary"]
        if spans_dir is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            command = [sys.executable, os.path.join(HERE, "traced_serve.py"), spans_dir, *args]
        launched = time.monotonic()
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], SPAWN_TIMEOUT)
            banner = self.process.stdout.readline() if ready else ""
            if " on " not in banner:
                raise RuntimeError(f"server did not start: {banner!r}")
            address = banner.split(" on ", 1)[1].split()[0]
            self.driver = OpenLoopDriver(
                "127.0.0.1", int(address.rsplit(":", 1)[1]), plan.CONNECTIONS
            )
            if not self.driver.call("ping").get("ok"):
                raise RuntimeError("server did not answer ping")
        except BaseException:
            self.process.kill()
            self.process.communicate()
            raise
        #: Spawn to the first answered ``ping`` (worker start-up included).
        self.setup_s = time.monotonic() - launched

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        """Never leave a server behind, whatever interrupted the run."""
        if self.process.poll() is None:
            self.driver.close()
            self.process.kill()
            self.process.communicate()

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server plus its worker processes, in MB."""
        parent = str(self.process.pid)
        total = peak_rss_mb(parent)
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            if fields[1] == parent:
                total += peak_rss_mb(entry)
        return total

    def shutdown(self, errors: List[str]) -> Dict[str, Any]:
        """Stop through the protocol, wait for the exit, return the last status."""
        try:
            status = self.driver.call("status")["result"]
            self.driver.call("shutdown")
        finally:
            self.driver.close()
            try:
                _, stderr = self.process.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                _, stderr = self.process.communicate()
                errors.append("server did not exit after shutdown")
        if self.process.returncode != 0:
            errors.append(f"server exited with {self.process.returncode}: {stderr[-500:]}")
        return status


def _load(server: Server, workload: str, seed: int, steps, errors: List[str], gap: float = 0.0):
    """Warm up, then run ``steps`` in order, idling ``gap`` seconds before
    each; returns (rung summaries, sat bursts)."""
    mix = plan.SERVE[workload]["mix"]
    driver = server.driver
    # A discarded burst at full tilt: caches fill before anything is timed.
    warmup = next(step for step in steps if not isinstance(step, Phase))
    driver.run_closed(mix, seed, warmup, plan.SAT_IN_FLIGHT)
    phases: Dict[str, List[PhaseResult]] = {}
    bursts: List[ClosedResult] = []
    for offset, step in enumerate(steps, start=1):
        time.sleep(gap)
        if isinstance(step, Phase):
            phases.setdefault(step.name, []).append(driver.run_phase(step, mix, seed + offset))
        else:
            bursts.append(driver.run_closed(mix, seed + offset, step, plan.SAT_IN_FLIGHT))
    rungs = {name: rung_summary(results) for name, results in phases.items()}
    for name, rung in rungs.items():
        # ``ref`` must be served whole; above it a refusal is the bounded
        # queue answering a rung past saturation, and only fails that rung.
        lost = rung["failed"] + rung["missing"] + (rung["overloaded"] if name == "ref" else 0)
        if lost:
            errors.append(
                f"rung {name}: {rung['failed']} failed, {rung['missing']} missing, "
                f"{rung['overloaded']} overloaded of {rung['sent']} {rung['errors']}"
            )
    bad = sum(burst.failed + burst.missing + burst.overloaded for burst in bursts)
    if bad:
        errors.append(
            f"sat: {bad} failed, missing or overloaded of "
            f"{sum(burst.sent for burst in bursts)} {[e for b in bursts for e in b.errors]}"
        )
    return rungs, bursts


def _verify_recording(server: Server, status: Dict[str, Any], errors: List[str]) -> Dict[str, float]:
    """Replay the trace the server recorded; returns the replay's numbers."""
    if server.record_path is None:
        return {}
    from repro.trace import replay_trace

    started = time.perf_counter()
    report = replay_trace(server.record_path)
    elapsed = time.perf_counter() - started
    if not report.ok:
        errors.append(f"recorded trace diverged on replay: {report.divergence}")
    if report.events_applied != status["events_applied"]:
        errors.append(
            f"trace holds {report.events_applied} events, server applied "
            f"{status['events_applied']}"
        )
    return {
        "replay_events_per_s": report.events_applied / elapsed,
        "trace_bytes_per_op": os.path.getsize(server.record_path) / max(1, report.events_applied),
        "replay_events": report.events_applied,
    }


def _burst_rates(bursts: List[ClosedResult]) -> List[float]:
    return [burst.ok_per_s for burst in bursts]


def _sat_rate(bursts: List[ClosedResult]) -> float:
    """Capacity: the mean rate of the three quietest bursts.

    The bursts are equal work (same length, same operations in another
    order), and the box only ever makes one slower, so the fastest are the
    ones least disturbed — the service's counterpart of the batch workloads'
    per-event minimum.  Three and not one, so that a single lucky order of
    cheap churn events does not set the number.
    """
    return statistics.fmean(sorted(_burst_rates(bursts))[-plan.QUIET_BURSTS:])


def run_untraced(
    workload: str, seed: int, seconds: float, workdir: str, env: Dict[str, str]
) -> Dict[str, Any]:
    """The end-to-end run: set-up samples, then the ``sat`` bursts."""
    errors: List[str] = []
    setups = []

    def idle_servers(tags) -> None:
        for tag in tags:
            with Server(workload, seed, workdir, env, tag=f"setup{tag}") as idle:
                setups.append(idle.setup_s)
                idle.shutdown(errors)

    # Set-up is sampled by the loaded server and by idle ones, half of them
    # before it and half after, so that they do not all see the box in the
    # one state.
    spare = range(plan.SETUP_SAMPLES - 1)
    idle_servers(spare[: len(spare) // 2])
    steps = plan.serve_steps(workload, seconds, traced=False)["untraced"]
    with Server(workload, seed, workdir, env, tag="main") as server:
        setups.append(server.setup_s)
        _, bursts = _load(
            server, workload, seed, steps, errors, plan.SERVE[workload]["gap_seconds"]
        )
        rss = server.peak_rss_mb()
        status = server.shutdown(errors)
    replay = _verify_recording(server, status, errors)
    idle_servers(spare[len(spare) // 2:])

    attempted = sum(burst.sent for burst in bursts)
    failed = sum(burst.failed + burst.missing + burst.overloaded for burst in bursts)
    detail = {
        "setup_s": statistics.median(setups),
        "setup_samples": setups,
        "sat_ok_per_s": _sat_rate(bursts),
        "sat_burst_rates": _burst_rates(bursts),
        "window_spread": spread(_burst_rates(bursts)),
        "repeat_gap": repeat_gap(_burst_rates(bursts), best=max, count=plan.QUIET_BURSTS),
        "peak_rss_mb": rss,
        "failed_share": failed / attempted,
        "events_applied": status["events_applied"],
        **replay,
    }
    return {
        "attempted": attempted,
        # A failed check that no single response accounts for (a bad exit
        # code, a diverged replay) fails the whole run.
        "failed": failed or (attempted if errors else 0),
        "errors": errors,
        "noisy": ["ops_per_s"] if detail["repeat_gap"] > plan.MAX_NOISE else [],
        "detail": detail,
        "end_to_end": {
            "setup_s": detail["setup_s"],
            "ops_per_s": detail["sat_ok_per_s"],
            "peak_rss_mb": rss,
        },
    }


def max_ok_rate(workload: str, rungs: Dict[str, Dict[str, float]]) -> float:
    """Highest rung that met every condition, with all lower rungs meeting them too.

    The driver's lateness is not among the conditions: latency runs from the
    due instant, so a late send is inside every latency it delayed and can
    only fail a rung, never pass one (``driver.late_ms_p99`` says whether a
    failed rung measured the driver).
    """
    limit = plan.SERVE[workload]["p99_limit_ms"]
    best = 0.0
    for name in ("ref", "hi", "top"):
        rung = rungs[name]
        met = (
            rung["p99_ms"] <= limit
            and not (rung["failed"] or rung["missing"] or rung["overloaded"])
            and rung["backlog_growth"] <= plan.MAX_BACKLOG_GROWTH
        )
        if not met:
            break
        best = rung["rate"]
    return best


def run_traced(
    workload: str, seed: int, seconds: float, workdir: str, env: Dict[str, str]
) -> Dict[str, Any]:
    """The per-layer run: the ladder on a plain server, ``ref`` on a traced one."""
    errors: List[str] = []
    steps = plan.serve_steps(workload, seconds, traced=True)

    with Server(workload, seed, workdir, env, tag="ladder") as plain:
        ladder, plain_sat = _load(plain, workload, seed, steps["untraced"], errors)
        plain.shutdown(errors)

    spans_dir = os.path.join(workdir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    with Server(workload, seed, workdir, env, tag="traced", spans_dir=spans_dir) as traced:
        rungs, traced_sat = _load(traced, workload, seed, steps["traced"], errors)
        status = traced.shutdown(errors)
    replay = _verify_recording(traced, status, errors)

    payloads = []
    for name in sorted(os.listdir(spans_dir)):
        with open(os.path.join(spans_dir, name), "r", encoding="utf-8") as handle:
            payloads.append(json.load(handle))
    server_payload = next(payload for payload in payloads if payload["role"] == "server")

    from repro.scenarios import Scenario

    probe_scenario = Scenario(seed=seed, **plan.SERVE[workload]["probe_scenario"])
    probe_runner = probe_scenario.build_runner()
    probe_runner.run(30)
    leaves = probe_leaves(probe_runner.engine)

    table = layer_table(payloads, leaves)
    ref = rungs["ref"]
    # Every request the traced server answered: warm-up, ref, sat, control.
    ops = sum(status["operations"].values())
    layers = point_metrics(table, leaves, ops)

    drained, batches = server_payload["values"].get("service.queue", [0, 0])
    extra = server_payload["extra"]
    phase_times = extra.get("phase_times", {})
    phase_total = sum(phase_times.values())
    events = status["events_applied"]
    dispatches = table["shard.dispatch"]["calls"]
    layers.update(
        {
            "service.batch_mean": drained / batches if batches else 0.0,
            "service.server_ms_p50": ref["server_p50_ms"],
            "service.server_ms_p99": ref["server_p99_ms"],
            "service.wire_ms_p50": ref["wire_p50_ms"],
            "service.lat_p50_ms": ladder["ref"]["p50_ms"],
            "service.lat_p75_ms": ladder["ref"]["p75_ms"],
            "service.lat_p99_ms": ladder["ref"]["p99_ms"],
            "service.lat_p99_hi_ms": ladder["hi"]["p99_ms"],
            "service.max_ok_rate": max_ok_rate(workload, ladder),
            "shard.worker_execute.share": (
                phase_times.get("worker_execute", 0.0) / phase_total if phase_total else 0.0
            ),
            "shard.idle.share": phase_times.get("idle", 0.0) / phase_total if phase_total else 0.0,
            "shard.events_per_window": events / dispatches if dispatches else 0.0,
            "shard.handoffs_per_kop": (
                extra.get("handoffs_sent", 0) * 1000.0 / events if events else 0.0
            ),
            "core.messages_per_op": ref["messages"] / ref["ok"] if ref["ok"] else 0.0,
            "core.rounds_per_op": ref["rounds"] / ref["ok"] if ref["ok"] else 0.0,
            "walks.hops_per_op": ref["walk_hops"] / ref["ok"] if ref["ok"] else 0.0,
            "walks.hops_per_s": ref["walk_hops"] / ref["elapsed_s"],
            "trace.bytes_per_op": replay.get("trace_bytes_per_op", 0.0),
            "trace.replay_events_per_s": replay.get("replay_events_per_s", 0.0),
            "driver.late_ms_p99": max(rung["late_p99_ms"] for rung in ladder.values()),
            "spine.trace_overhead_share": 1.0 - _sat_rate(traced_sat) / _sat_rate(plain_sat),
            "spine.window_spread": spread(_burst_rates(plain_sat)),
        }
    )
    attempted = (
        sum(rung["sent"] for rung in ladder.values())
        + sum(rung["sent"] for rung in rungs.values())
        + sum(burst.sent for burst in plain_sat + traced_sat)
    )
    layers["spine.failed_share"] = 1.0 if errors else 0.0
    return {
        "attempted": attempted,
        "failed": attempted if errors else 0,
        "errors": errors,
        "detail": {
            "ladder": ladder,
            "missing_points": server_payload["missing"],
            "processes": len(payloads),
        },
        "per_layer": layers,
    }
