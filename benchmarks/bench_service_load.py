"""T2 — Live service load: requests/second and tail latency under churn.

The live-service tentpole's acceptance claim is a *measurement*: the
front-end must sustain hundreds of requests per second of mixed
sample/join/leave traffic with bounded tail latency and zero hard failures.
This benchmark runs the whole stack in one process — a
:class:`~repro.service.frontend.ServiceFrontend` on an ephemeral port and
the open-loop :func:`~repro.service.loadgen.drive_load` driver sending a
deterministic Poisson schedule at it — and appends
``service.requests_per_second`` and ``service.p99_latency_ms`` to the
``BENCH_throughput.json`` trajectory at the repository root, alongside the
engine-throughput history.

The sharded arm (``service_load_sharded``) measures the multi-core backend
(``repro serve --shards W``): both backends are driven to *saturation* (an
offered rate far above what either can serve) to expose their peak
``requests_per_second``, and at the standard rate for the tail-latency
comparison.  The speedup assertion only fires on machines with enough cores
to actually host the worker processes — a 1-CPU runner time-slices workers
against the frontend and the generator, so its record is annotated
``oversubscribed`` instead (the same honesty rule as
``bench_sharded_engine``).

Single-process on purpose: the driver runs in a worker thread beside the
server's loop and shares its interpreter, so the measured rate is a *lower* bound on what separate
processes achieve (the driver steals cycles from the server), and the
figure is still comfortably above the 500 req/s acceptance bar.  Latencies
run from each request's due instant (see ``repro.service.loadgen``), and
``driver.late_ms_p99`` says how late the driver itself ran.

Run standalone (CI writes the JSON artifact this way)::

    PYTHONPATH=src python benchmarks/bench_service_load.py [--rate R] [--duration S]
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time

import pytest

from repro.service import LiveEngineSession, live_scenario
from repro.service.frontend import ServiceFrontend
from repro.service.loadgen import drive_load
from repro.workloads.arrivals import PoissonArrivals

from bench_engine_throughput import RESULT_PATH, save_result
from common import run_once

RATE = 800.0
DURATION = 5.0
MIX = {"sample": 0.8, "join": 0.1, "leave": 0.1}
MAX_SIZE = 4096
INITIAL = 300
SEED = 47

#: The issue's acceptance bar for sustained mixed load.
ACCEPTANCE_RATE = 500.0

#: Worker processes of the sharded arm and its speedup bar at that count;
#: one logical shard per worker (the `serve --shards` default partition).
SHARD_WORKERS = 4
LOGICAL_SHARDS = 4
SHARDED_SPEEDUP_BAR = 2.5

#: Offered rate that saturates either backend: peak-throughput probe.
SATURATION_RATE = 20000.0
SATURATION_DURATION = 3.0


def _drive(make_session, rate: float, duration: float, connections: int = 4):
    """Serve one fresh session and drive a Poisson schedule at it."""
    arrivals = PoissonArrivals(
        rate=rate, duration=duration, mix=MIX, seed=SEED + 1
    ).schedule()

    session = make_session()
    frontend = ServiceFrontend(session, port=0)
    frontend.start()
    reports = []
    driver = threading.Thread(
        target=lambda: reports.append(
            drive_load(
                "127.0.0.1",
                frontend.port,
                arrivals,
                offered_rate=rate,
                connections=connections,
            )
        )
    )
    driver.start()
    try:
        while driver.is_alive():
            frontend.run_once(0.05)
    finally:
        frontend.stop()
        driver.join(timeout=60)
    (report,) = reports
    return session, frontend, report


def _combined_quantiles(report):
    """Merge the per-operation latency sketches into one headline view.

    Pushes each sketch's retained (evenly spaced) sample into one combined
    sketch; quantiles of the merge are the cross-operation tail figures.
    """
    from repro.analysis.statistics import QuantileSketch

    combined = QuantileSketch()
    for stats in report.per_operation.values():
        for value in stats.latency.series:
            combined.push(value)
    return combined


def run_experiment(rate: float = RATE, duration: float = DURATION):
    session, frontend, report = _drive(
        lambda: LiveEngineSession(
            live_scenario(seed=SEED, initial_size=INITIAL, max_size=MAX_SIZE)
        ),
        rate,
        duration,
    )
    combined = _combined_quantiles(report)

    result = {
        "benchmark": "service_load",
        "offered_rate": report.offered_rate,
        "duration_seconds": report.duration,
        "sent": report.sent,
        "succeeded": report.succeeded,
        "overloaded": report.overloaded,
        "failed": report.failed,
        "missing": report.missing,
        "service.requests_per_second": report.achieved_rate,
        "service.p99_latency_ms": combined.quantile(0.99),
        "service.p50_latency_ms": combined.quantile(0.50),
        "driver.late_ms_p99": report.late_ms_p99,
        "operations": {
            name: stats.as_dict()
            for name, stats in sorted(report.per_operation.items())
        },
        "engine_events_applied": session.events_applied,
        "connections_served": frontend.connections_served,
        "queue_rejected": frontend.queue.rejected,
        "acceptance_rate": ACCEPTANCE_RATE,
        "max_size": MAX_SIZE,
        "initial_size": INITIAL,
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    return result


def run_sharded_experiment(
    rate: float = RATE,
    duration: float = DURATION,
    workers: int = SHARD_WORKERS,
):
    """The sharded-backend measurement: peak req/s speedup + tail latency.

    Four runs: each backend once at the saturating rate (peak throughput —
    the speedup numerator/denominator) and the sharded backend once at the
    standard rate (the apples-to-apples p99 against the classic baseline's
    figure from :func:`run_experiment`).
    """

    def classic():
        return LiveEngineSession(
            live_scenario(seed=SEED, initial_size=INITIAL, max_size=MAX_SIZE)
        )

    def sharded():
        return LiveEngineSession(
            live_scenario(
                seed=SEED, initial_size=INITIAL, max_size=MAX_SIZE, shards=LOGICAL_SHARDS
            ),
            workers=workers,
        )

    _, _, classic_sat = _drive(classic, SATURATION_RATE, SATURATION_DURATION)
    _, _, sharded_sat = _drive(sharded, SATURATION_RATE, SATURATION_DURATION)
    _, _, classic_std = _drive(classic, rate, duration)
    session, frontend, sharded_std = _drive(sharded, rate, duration)

    cpu_count = os.cpu_count() or 1
    # The in-process stack needs the frontend/generator loop *plus* the
    # worker processes; fewer cores than that means the measurement is
    # time-slicing, not scaling — record it, don't assert on it.
    oversubscribed = cpu_count < workers + 1
    speedup = (
        sharded_sat.achieved_rate / classic_sat.achieved_rate
        if classic_sat.achieved_rate
        else 0.0
    )

    result = {
        "benchmark": "service_load_sharded",
        "shards": session.scenario.shards,
        "workers": workers,
        "cpu_count": cpu_count,
        "oversubscribed": oversubscribed,
        "offered_rate": rate,
        "saturation_rate": SATURATION_RATE,
        "service.sharded_requests_per_second": sharded_sat.achieved_rate,
        "service.sharded_p99_latency_ms": _combined_quantiles(sharded_std).quantile(0.99),
        "service.sharded_p50_latency_ms": _combined_quantiles(sharded_std).quantile(0.50),
        "classic_saturated_requests_per_second": classic_sat.achieved_rate,
        "classic_p99_latency_ms": _combined_quantiles(classic_std).quantile(0.99),
        "speedup_vs_classic": speedup,
        "speedup_bar": SHARDED_SPEEDUP_BAR,
        "failed": sharded_sat.failed + sharded_std.failed,
        "missing": sharded_sat.missing + sharded_std.missing,
        "std_failed": classic_std.failed + classic_sat.failed,
        "engine_events_applied": session.events_applied,
        "connections_served": frontend.connections_served,
        "acceptance_rate": ACCEPTANCE_RATE,
        "max_size": MAX_SIZE,
        "initial_size": INITIAL,
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    return result


def check_sharded_result(result) -> None:
    """The sharded arm's acceptance assertions (shared by pytest and CI)."""
    assert result["failed"] == 0 and result["missing"] == 0, result
    assert result["engine_events_applied"] > 0
    assert result["service.sharded_requests_per_second"] >= ACCEPTANCE_RATE
    assert result["service.sharded_p99_latency_ms"] > 0
    if not result["oversubscribed"]:
        # Multi-core runner: the whole point of the sharded backend.
        assert result["speedup_vs_classic"] >= SHARDED_SPEEDUP_BAR, result
        # Tail no worse than the classic baseline (25% measurement slack).
        assert (
            result["service.sharded_p99_latency_ms"]
            <= result["classic_p99_latency_ms"] * 1.25
        ), result


@pytest.mark.experiment("T2")
def test_service_load(benchmark):
    result = run_once(benchmark, lambda: run_experiment())
    print(
        f"T2 service load: {result['sent']} requests offered at "
        f"{result['offered_rate']:.0f} req/s -> "
        f"{result['service.requests_per_second']:.0f} req/s served, "
        f"p50 {result['service.p50_latency_ms']:.2f} ms, "
        f"p99 {result['service.p99_latency_ms']:.2f} ms, "
        f"{result['overloaded']} overloaded, {result['failed']} failed, "
        f"{result['engine_events_applied']} churn events applied"
    )
    save_result(result)

    assert result["failed"] == 0
    assert result["missing"] == 0
    assert result["engine_events_applied"] > 0
    # The issue's sustained-load acceptance bar (in-process, so conservative).
    assert result["service.requests_per_second"] >= ACCEPTANCE_RATE
    assert result["service.p99_latency_ms"] > 0


@pytest.mark.experiment("T2")
def test_service_load_sharded(benchmark):
    result = run_once(benchmark, lambda: run_sharded_experiment())
    print(
        f"T2 sharded service load ({result['workers']} workers, "
        f"{result['cpu_count']} cpus"
        f"{', oversubscribed' if result['oversubscribed'] else ''}): "
        f"{result['service.sharded_requests_per_second']:.0f} req/s at "
        f"saturation vs classic "
        f"{result['classic_saturated_requests_per_second']:.0f} req/s "
        f"({result['speedup_vs_classic']:.2f}x), p99 "
        f"{result['service.sharded_p99_latency_ms']:.2f} ms vs classic "
        f"{result['classic_p99_latency_ms']:.2f} ms"
    )
    save_result(result)
    check_sharded_result(result)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="live service load benchmark")
    parser.add_argument("--rate", type=float, default=RATE)
    parser.add_argument("--duration", type=float, default=DURATION)
    parser.add_argument("--out", type=str, default=RESULT_PATH)
    parser.add_argument(
        "--workers", type=int, default=SHARD_WORKERS,
        help="worker processes of the sharded arm",
    )
    parser.add_argument(
        "--skip-sharded", action="store_true",
        help="only run the classic single-engine measurement",
    )
    args = parser.parse_args()
    outcome = run_experiment(rate=args.rate, duration=args.duration)
    save_result(outcome, args.out)
    print(json.dumps(outcome, indent=2, sort_keys=True))
    if not args.skip_sharded:
        sharded_outcome = run_sharded_experiment(
            rate=args.rate, duration=args.duration, workers=args.workers
        )
        save_result(sharded_outcome, args.out)
        print(json.dumps(sharded_outcome, indent=2, sort_keys=True))
        check_sharded_result(sharded_outcome)
