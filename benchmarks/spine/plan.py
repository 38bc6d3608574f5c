"""The frozen constants of the four workloads.

Workload names are fixed: later issues cite them.  Sizes that depend on the
run length scale with ``--seconds`` through the nominal rates below, which
were measured on the reference box (2 vCPU, Python 3.11) and then frozen —
the *work* of a run is a pure function of ``(workload, seed, seconds)``, so
counts repeat exactly for a fixed seed, and a faster program finishes the
same work sooner instead of being handed more of it.
"""

from __future__ import annotations

from typing import Any, Dict, List

from driver import Phase

DEFAULT_SEED = 47

WORKLOADS = ("churn-oracle", "churn-simwalk-trace", "serve-reads", "serve-churn-sharded")
BATCH_WORKLOADS = WORKLOADS[:2]

#: Set-ups timed per run (``setup_s`` is their median).
SETUP_SAMPLES = 7

#: Share of ``--seconds`` one pass of the traced run is sized for (that run
#: is one reference pass and one traced pass; an untraced pass's share is the
#: workload's ``pass_share``).
TRACED_PASS_SHARE = 0.15
#: Scenario seeds of a batch run are ``seed``, ``seed + SEED_STRIDE``, ...
SEED_STRIDE = 7919

BATCH: Dict[str, Dict[str, Any]] = {
    "churn-oracle": {
        "scenario": {
            "name": "churn-oracle",
            "max_size": 4096,
            "initial_size": 1200,
            "tau": 0.15,
            "workload": {"kind": "uniform"},
            "engine_options": {"walk_mode": "oracle"},
        },
        "nominal_events_per_s": 140.0,
        "warmup_events": 150,
        #: The untraced run: scenario seeds, timed same-seed passes of each,
        #: and the share of ``--seconds`` one pass is sized for.
        "seeds": 1,
        "passes": 3,
        "pass_share": 0.3,
        "replays": False,
    },
    "churn-simwalk-trace": {
        "scenario": {
            "name": "churn-simwalk-trace",
            "max_size": 4096,
            "initial_size": 300,
            "tau": 0.15,
            "workload": {"kind": "uniform"},
            "engine_options": {"walk_mode": "simulated", "walk_kernel": "array"},
        },
        "nominal_events_per_s": 80.0,
        "warmup_events": 50,
        # Two seeds: at n0=300 a run has eight clusters, whose shape is the
        # seed's and moves the cost of an event by a sixth.
        "seeds": 2,
        "passes": 3,
        "pass_share": 0.13,
        #: The first pass's trace is replayed and verified.
        "replays": True,
        "index_every": 100,
        "checkpoint_every": 250,
    },
}

#: Rungs were frozen from what the reference box measured: open loop,
#: ``serve-reads`` held p99 under its limit up to 4000-6000 req/s, usually
#: refused requests from 8000 but once kept up with 9000 (its best closed-loop
#: burst read 13.6 k ok/s); ``serve-churn-sharded`` held it up to 300-450
#: req/s and ran 0.4-2 s behind at 900.  ``hi`` passes, ``top`` is past any
#: capacity seen.
SERVE: Dict[str, Dict[str, Any]] = {
    "serve-reads": {
        "serve_args": [],
        "mix": {"sample": 0.83, "broadcast": 0.10, "status": 0.05, "join": 0.01, "leave": 0.01},
        "rungs": {"ref": 1000.0, "hi": 3000.0, "top": 15000.0},
        "p99_limit_ms": 50.0,
        "probe_scenario": {"max_size": 4096, "initial_size": 300, "tau": 0.15},
        "records": False,
        #: Closed-loop capacity on the reference box, which sizes the bursts.
        "nominal_ok_per_s": 8000.0,
        #: ``sat`` bursts of an untraced run, and the idle gap before each.
        "bursts": 40,
        "gap_seconds": 0.0,
    },
    "serve-churn-sharded": {
        "serve_args": ["--shards", "2", "--initial-size", "1200"],
        "mix": {"join": 0.45, "leave": 0.45, "sample": 0.10},
        "rungs": {"ref": 150.0, "hi": 300.0, "top": 900.0},
        "p99_limit_ms": 250.0,
        # One logical shard: the engine each worker drives.
        "probe_scenario": {"max_size": 4096, "initial_size": 300, "tau": 0.15},
        "records": True,
        "nominal_ok_per_s": 800.0,
        # Fewer than serve-reads, since every recorded event is replayed
        # afterwards; the gaps spread them over as long a stretch of the box.
        "bursts": 10,
        "gap_seconds": 0.5,
    },
}

#: Connections of the load driver (one process; ``nproc`` is 2).
CONNECTIONS = 2
#: Requests kept in flight per connection during the closed-loop ``sat`` step.
SAT_IN_FLIGHT = 32
#: ``sat`` bursts, the quietest of a run, whose mean rate is its capacity.
QUIET_BURSTS = 3
#: Repeat gap above which an untraced run's ``ops_per_s`` is flagged ``noisy``
#: (the bound of that metric): the quiet-end estimate then rests on a repeat
#: that the others it needs did not come near.  Batch: the two quietest of
#: the same-seed passes, by total time.  Service: the best and the third-best
#: of the equal ``sat`` bursts.
MAX_NOISE = 0.25
#: Last-window over first-window mean latency above which a backlog is growing.
MAX_BACKLOG_GROWTH = 2.0
WINDOWS_PER_RUNG = 3


def batch_events(workload: str, seconds: float, traced: bool) -> int:
    """Timed events of one pass for a run of ``seconds`` (a multiple of 50)."""
    share = TRACED_PASS_SHARE if traced else BATCH[workload]["pass_share"]
    events = seconds * share * BATCH[workload]["nominal_events_per_s"]
    return max(100, 50 * round(events / 50))


def burst_requests(workload: str, seconds: float) -> int:
    """Requests of one closed-loop ``sat`` burst (whole blocks of the mix):
    about ``seconds / 40`` of work at the workload's nominal capacity."""
    block = 100
    return max(block, block * round(0.025 * seconds * SERVE[workload]["nominal_ok_per_s"] / block))


def serve_steps(workload: str, seconds: float, traced: bool) -> Dict[str, List[Any]]:
    """The load steps of one run, grouped by the server they load.

    A step is an open-loop :class:`~driver.Phase` or an ``int`` — a
    closed-loop ``sat`` burst of that many requests.  The untraced run spends
    its time on the one load metric it reports: equal ``sat`` bursts, as many
    as the run has room for, so a slow stretch of the box cannot own it.  The
    traced run climbs the whole ladder on an untraced server — short rungs,
    for the latencies and ``max_ok_rate`` — then repeats ``ref`` on a traced
    server.
    """
    rungs = SERVE[workload]["rungs"]
    burst = burst_requests(workload, seconds)
    if not traced:
        return {"untraced": [burst] * SERVE[workload]["bursts"]}

    def rung(name: str) -> Phase:
        return Phase(name, rungs[name], 0.1 * seconds / WINDOWS_PER_RUNG, WINDOWS_PER_RUNG)

    return {
        "untraced": [rung("ref"), rung("hi"), rung("top"), burst, burst],
        "traced": [rung("ref"), burst, burst],
    }


# ----------------------------------------------------------------------
# Metric names (BENCHMARK.json lists exactly these; the self-check compares)
# ----------------------------------------------------------------------
#: ``name -> (unit, better)`` of the end-to-end metrics every workload emits.
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Per-layer metrics beyond the three every measurement point yields.
EXTRA_PER_LAYER: Dict[str, tuple] = {
    "core.messages_per_op": ("1/op", "lower"),
    "core.rounds_per_op": ("1/op", "lower"),
    "walks.hops_per_op": ("1/op", "lower"),
    "walks.hops_per_s": ("1/s", "higher"),
    "scenarios.event_p75_ms": ("ms", "lower"),
    "trace.bytes_per_op": ("B/op", "lower"),
    "trace.replay_events_per_s": ("1/s", "higher"),
    "shard.worker_execute.share": ("ratio", "higher"),
    "shard.idle.share": ("ratio", "lower"),
    "shard.events_per_window": ("1/op", "higher"),
    "shard.handoffs_per_kop": ("1/op", "lower"),
    "service.batch_mean": ("count", "higher"),
    "service.server_ms_p50": ("ms", "lower"),
    "service.server_ms_p99": ("ms", "lower"),
    "service.wire_ms_p50": ("ms", "lower"),
    "service.lat_p50_ms": ("ms", "lower"),
    "service.lat_p75_ms": ("ms", "lower"),
    "service.lat_p99_ms": ("ms", "lower"),
    "service.lat_p99_hi_ms": ("ms", "lower"),
    "service.max_ok_rate": ("req/s", "higher"),
    "driver.late_ms_p99": ("ms", "lower"),
    "spine.trace_overhead_share": ("ratio", "lower"),
    "spine.window_spread": ("ratio", "lower"),
    "spine.attributed_share": ("ratio", "higher"),
    "spine.failed_share": ("ratio", "lower"),
    "spine.steal_ticks": ("count", "lower"),
}


def per_layer_metrics() -> Dict[str, tuple]:
    """``name -> (unit, better)`` of every per-layer metric, in report order."""
    from spans import COUNTED_NAMES, POINT_NAMES

    metrics: Dict[str, tuple] = {}
    for name in POINT_NAMES:
        metrics[f"{name}.calls_per_op"] = ("1/op", "lower")
        metrics[f"{name}.self_us_per_op"] = ("us/op", "lower")
    for name in COUNTED_NAMES:
        metrics[f"{name}.us_per_call"] = ("us", "lower")
    metrics.update(EXTRA_PER_LAYER)
    return metrics
