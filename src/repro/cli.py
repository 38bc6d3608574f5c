"""Command-line interface for quick experiments.

``python -m repro.cli <command>`` runs a small, self-contained experiment and
prints its table — useful for kicking the tyres without writing a script:

* ``run-scenario`` — execute a named preset or JSON-spec
  :class:`~repro.scenarios.scenario.Scenario` through the
  :class:`~repro.scenarios.runner.SimulationRunner` and print the result
  table (``--list`` shows the presets).
* ``run-sweep`` — expand a parameter grid x seed list over a preset (or a
  JSON :class:`~repro.experiments.sweep.SweepSpec`), fan the runs out across
  worker processes and print per-grid-point aggregates (mean ± 95% CI);
  ``--resume FILE`` makes the sweep interruptible (finished units are
  appended to the file and never re-run).
* ``resume``     — continue an interrupted ``run-scenario`` from its
  checkpoint file, bit-identically to the uninterrupted run (sharded runs
  too, cut at any step, resumed on any worker count).
* ``replay``     — re-drive a recorded trace (single-engine or sharded, batch
  or ``serve``) against a rebuilt driver and verify state-hash agreement at
  every index frame (exit 1 on divergence);
  with ``--to-step N --checkpoint FILE`` it instead materialises a verified
  resume point at step N — any batch trace, sharded ones included, becomes
  a library of checkpoints.
* ``trace-diff`` — pinpoint the first diverging event between two traces
  (the two files may mix JSONL and binary encodings).
* ``serve``      — run the engine as a live TCP service (newline-delimited
  JSON protocol, bounded queue with fast-fail backpressure); ``--record``
  makes the whole live session replayable through ``replay``.
* ``load``       — open-loop load driver against a running ``serve``: Poisson
  or trace-file arrivals, per-operation p50/p95/p99 latency from each due
  instant, the driver's own lateness, throughput (exit 1 on hard errors).

What the earlier ``churn`` / ``attack`` / ``costs`` commands showed is a
preset away: ``run-scenario --name uniform-churn`` (corruption trajectory,
per-operation costs, the structural invariants line); ``run-scenario --name
join-leave-attack`` beside ``--name no-shuffle-attack``; ``run-sweep --name
uniform-churn --grid max_size=256,1024,4096 --metrics
mean_messages_per_event`` (``benchmarks/bench_fig2_operation_costs.py`` fits
the growth exponents).

Every command accepts ``--seed`` for reproducibility; defaults are sized to
finish in seconds.  ``run-scenario --record FILE`` records any scenario
(``--trace-format binary`` for the ~6x smaller struct-packed codec,
``--flush-every`` for the write batch size); ``--checkpoint FILE
--checkpoint-every N`` makes it resumable.
Interrupting a recording run (Ctrl-C / SIGTERM) flushes the trace through
the abort path and exits 130 — the file on disk replays up to its last
complete frame.

Exit codes: 0 ok; 1 diverged, or a check failed; 2 a usage error or a
malformed input (flag, spec, trace, checkpoint); 3 an internal error, with
its traceback; 130 interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import traceback
from typing import Iterator, Optional, Sequence

from .errors import ConfigurationError
from .analysis import format_table
from .experiments import AGGREGATED_METRICS, SweepRunner, SweepSpec
from .scenarios import (
    NAMED_SCENARIOS,
    CorruptionTrajectoryProbe,
    CostLedgerProbe,
    Scenario,
    named_scenario,
)
from .service.protocol import DEFAULT_MAX_BATCH, DEFAULT_MAX_QUEUE
from .trace import (
    DEFAULT_FLUSH_EVERY,
    TRACE_FORMATS,
    TraceDivergenceError,
    checkpoint_from_trace,
    record_scenario,
    replay_trace,
    resume_from_checkpoint,
    trace_diff,
)

#: The `load` command's default operation mix.  Kept as a named constant so
#: `--sessions lognormal` can tell "user left the default" (switch to the
#: read-only session mix) from "user asked for this mix exactly".
LOAD_DEFAULT_MIX = "sample=0.8,join=0.1,leave=0.1"

#: Logical shard count given to a shard-less scenario when ``--shards W`` is
#: passed: the worker count is an execution choice, the *logical* count is
#: semantic, so `--shards W` alone means "same results, W processes".
DEFAULT_SHARDS = 4


def _workers_for(scenario: Scenario, shards_flag: Optional[int]) -> int:
    """Apply ``--shards W`` to ``scenario``; return the worker-process count.

    The scenario's own ``shards`` field picks the backend.  The flag names
    the processes a sharded backend runs on, and turns a shard-less scenario
    into one of :data:`DEFAULT_SHARDS` logical shards.
    """
    if shards_flag and not scenario.shards:
        scenario.shards = DEFAULT_SHARDS
    return max(1, shards_flag or 1)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quick experiments with the NOW clustering protocol (PODC 2013 reproduction).",
    )
    parser.add_argument("--seed", type=int, default=1, help="random seed (default: 1)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    scenario = subparsers.add_parser(
        "run-scenario", help="run a named or JSON-spec scenario through the SimulationRunner"
    )
    scenario.add_argument(
        "--name", type=str, default=None, help="named preset (see --list); --seed overrides its seed"
    )
    scenario.add_argument(
        "--spec", type=str, default=None, help="path to a Scenario JSON file (its own seed is kept)"
    )
    scenario.add_argument("--steps", type=int, default=None, help="override the scenario's step budget")
    scenario.add_argument("--list", action="store_true", help="list the named presets and exit")
    scenario.add_argument(
        "--record", type=str, default=None, metavar="FILE",
        help="record every event to this trace file (see `replay`)",
    )
    scenario.add_argument(
        "--trace-format", type=str, default="jsonl", choices=list(TRACE_FORMATS),
        help="trace encoding: 'jsonl' (greppable) or 'binary' (struct-packed, ~6x smaller)",
    )
    scenario.add_argument(
        "--flush-every", type=int, default=DEFAULT_FLUSH_EVERY, metavar="N",
        help=f"trace frames buffered between disk writes (default: {DEFAULT_FLUSH_EVERY}; "
             "1 restores flush-per-frame)",
    )
    scenario.add_argument(
        "--index-every", type=int, default=200, metavar="N",
        help="events between state-hash index frames in the trace (default: 200)",
    )
    scenario.add_argument(
        "--checkpoint", type=str, default=None, metavar="FILE",
        help="write resumable checkpoints to this file (see `resume`)",
    )
    scenario.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="events between checkpoints (default: a quarter of the step budget)",
    )
    scenario.add_argument(
        "--shards", type=int, default=None, metavar="W",
        help="run through the sharded coordinator with W worker processes "
             "(results are bit-identical for any W; a scenario without a "
             "shards field defaults to 4 logical shards)",
    )
    scenario.add_argument(
        "--barrier-interval", type=int, default=None, metavar="N",
        help="admitted events between sharded handoff barriers (sharded runs "
             "only; overrides the scenario's shard_options value, default 64)",
    )
    scenario.add_argument(
        "--profile", type=str, default=None, metavar="FILE",
        help="profile the run loop with cProfile and write pstats data to "
             "FILE (works for classic and sharded runs; load with "
             "pstats.Stats)",
    )

    resume = subparsers.add_parser(
        "resume", help="continue an interrupted run-scenario from its checkpoint file"
    )
    resume.add_argument("--checkpoint", type=str, required=True, metavar="FILE")
    resume.add_argument(
        "--steps", type=int, default=None,
        help="additional steps to run (default: finish the scenario's original budget)",
    )
    resume.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="keep checkpointing to the same file every N events",
    )
    resume.add_argument(
        "--shards", type=int, default=None, metavar="W",
        help="worker processes when resuming a sharded checkpoint "
             "(ignored for single-engine checkpoints; any W resumes "
             "bit-identically)",
    )

    replay = subparsers.add_parser(
        "replay", help="re-drive a recorded trace and verify determinism (exit 1 on divergence)"
    )
    replay.add_argument("--trace", type=str, required=True, metavar="FILE")
    replay.add_argument(
        "--to-step", type=int, default=None, metavar="N",
        help="verify up to step N only, then materialise a checkpoint there "
             "(requires --checkpoint; single-engine and --shards batch traces "
             "alike, not `serve` traces)",
    )
    replay.add_argument(
        "--checkpoint", type=str, default=None, metavar="FILE",
        help="write the step-N resume point to this file (requires --to-step)",
    )

    diff = subparsers.add_parser(
        "trace-diff", help="find the first diverging event between two trace files"
    )
    diff.add_argument("first", type=str, help="first trace file")
    diff.add_argument("second", type=str, help="second trace file")

    sweep = subparsers.add_parser(
        "run-sweep", help="run a multi-seed parameter grid over a preset across worker processes"
    )
    sweep.add_argument("--name", type=str, default=None, help="named scenario preset to sweep")
    sweep.add_argument(
        "--spec", type=str, default=None, help="path to a SweepSpec JSON file (overrides --name)"
    )
    sweep.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="FIELD=V1,V2",
        help="grid axis, e.g. 'tau=0.1,0.2' or 'engine_options.walk_mode=simulated,oracle' (repeatable)",
    )
    sweep.add_argument(
        "--seeds", type=str, default=None, help="comma-separated seed list (e.g. '1,2,3')"
    )
    sweep.add_argument(
        "--num-seeds",
        type=int,
        default=None,
        help="run seeds --seed .. --seed+N-1 (ignored when --seeds is given)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: 2, or the spec file's own setting)",
    )
    sweep.add_argument("--steps", type=int, default=None, help="override the step budget")
    sweep.add_argument(
        "--resume", type=str, default=None, metavar="FILE",
        help="progress file: finished units are appended here and never re-run",
    )
    sweep.add_argument(
        "--metrics",
        type=str,
        default="events_per_second,peak_worst_fraction,mean_worst_fraction",
        help=f"comma-separated aggregate columns (choices: {', '.join(AGGREGATED_METRICS)})",
    )

    serve = subparsers.add_parser(
        "serve", help="run the engine as a live TCP service (see docs/SERVICE.md)"
    )
    serve.add_argument("--host", type=str, default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=7641, help="TCP port (0 picks a free one)")
    serve.add_argument(
        "--spec", type=str, default=None,
        help="path to a Scenario JSON file to serve (workload/adversary fields are "
             "ignored — events come from clients)",
    )
    serve.add_argument("--max-size", type=int, default=4096, help="name-space size N")
    serve.add_argument("--initial-size", type=int, default=300, help="bootstrap population")
    serve.add_argument("--tau", type=float, default=0.15, help="bootstrap Byzantine fraction")
    serve.add_argument(
        "--shards", type=int, default=0, metavar="W",
        help="serve through the sharded backend with W worker processes "
             "(0 = classic single-engine pump; the scenario's logical shard "
             "count defaults to 4 when the spec doesn't set one)",
    )
    serve.add_argument(
        "--record", type=str, default=None, metavar="FILE",
        help="record every churn event to this trace file (replayable via `replay`)",
    )
    serve.add_argument(
        "--trace-format", type=str, default="jsonl", choices=list(TRACE_FORMATS),
        help="trace encoding for --record",
    )
    serve.add_argument(
        "--index-every", type=int, default=200, metavar="N",
        help="events between state-hash index frames in the trace (default: 200)",
    )
    serve.add_argument(
        "--flush-every", type=int, default=DEFAULT_FLUSH_EVERY, metavar="N",
        help="trace frames buffered between disk writes",
    )
    serve.add_argument(
        "--max-queue", type=int, default=DEFAULT_MAX_QUEUE, metavar="N",
        help=f"bounded request queue size; a full queue fast-fails requests with "
             f"'overloaded' (default: {DEFAULT_MAX_QUEUE})",
    )
    serve.add_argument(
        "--max-batch", type=int, default=DEFAULT_MAX_BATCH, metavar="N",
        help=f"requests executed per engine batch between I/O ticks "
             f"(default: {DEFAULT_MAX_BATCH})",
    )

    load = subparsers.add_parser(
        "load", help="open-loop load generator against a running `serve`"
    )
    load.add_argument("--host", type=str, default="127.0.0.1", help="server address")
    load.add_argument("--port", type=int, default=7641, help="server port")
    load.add_argument(
        "--rate", type=float, default=500.0, metavar="R",
        help="offered load in requests/second (default: 500)",
    )
    load.add_argument(
        "--duration", type=float, default=10.0, metavar="S",
        help="seconds of scheduled arrivals (default: 10)",
    )
    load.add_argument(
        "--mix", type=str, default=LOAD_DEFAULT_MIX,
        help="operation mix as op=weight pairs (weights are normalised); with "
             "--sessions lognormal this is the in-session read mix "
             "(default then: sample=0.7,broadcast=0.1,status=0.2)",
    )
    load.add_argument(
        "--arrivals", type=str, default=None, metavar="FILE",
        help="drive a recorded JSONL arrival trace instead of a generated "
             "schedule (--rate/--duration/--mix/--sessions are ignored)",
    )
    load.add_argument(
        "--sessions", type=str, default="poisson", choices=("poisson", "lognormal"),
        help="arrival model: independent Poisson requests, or heavy-tailed "
             "join→ops→leave session lifecycles with log-normal lengths",
    )
    load.add_argument(
        "--mean-session", type=float, default=8.0, metavar="S",
        help="lognormal sessions: mean session length in seconds (default: 8)",
    )
    load.add_argument(
        "--sigma", type=float, default=1.2, metavar="SHAPE",
        help="lognormal sessions: heavy-tail shape parameter (default: 1.2)",
    )
    load.add_argument(
        "--op-rate", type=float, default=1.0, metavar="R",
        help="lognormal sessions: in-session read ops per second (default: 1)",
    )
    load.add_argument(
        "--diurnal", action="store_true",
        help="modulate the arrival rate over a day/night cycle (thinning; "
             "--rate stays the cycle average)",
    )
    load.add_argument(
        "--day-length", type=float, default=None, metavar="S",
        help="diurnal cycle length in seconds (default: the --duration span)",
    )
    load.add_argument(
        "--diurnal-amplitude", type=float, default=0.8, metavar="A",
        help="diurnal swing in (0,1): rate varies between (1-A)x and (1+A)x "
             "the base rate (default: 0.8)",
    )
    load.add_argument(
        "--connections", type=int, default=2, metavar="C",
        help="parallel connections to spread arrivals across (default: 2)",
    )
    load.add_argument(
        "--save-report", type=str, default=None, metavar="FILE",
        help="also write the full report as JSON to this file",
    )
    load.add_argument(
        "--shutdown-after", action="store_true",
        help="send a shutdown request to the server after the run (CI smoke)",
    )
    load.add_argument(
        "--strict", action="store_true",
        help="exit 1 on any overloaded response too, not just hard errors",
    )
    return parser


def _parse_grid_value(text: str):
    """Interpret one grid value: int, then float, then bare string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


#: Conventional exit code for a run stopped by Ctrl-C / SIGTERM (128 + SIGINT).
EXIT_INTERRUPTED = 130

#: Exit code for an exception no command handles: a fault of the program,
#: never of its input, so never confused with a divergence (1) or a usage
#: error (2).
EXIT_INTERNAL_ERROR = 3


@contextlib.contextmanager
def _terminate_as_interrupt() -> Iterator[None]:
    """Route SIGTERM through the KeyboardInterrupt path for the block's duration.

    Ctrl-C already raises KeyboardInterrupt; a supervisor's SIGTERM would
    otherwise kill the process without unwinding, skipping the abort path
    that flushes a partial trace to disk.  With both signals on the same
    exception path, every interrupted ``--record`` run leaves a readable
    crashed-run-shape trace.  No-op outside the main thread (signal
    handlers cannot be installed there).
    """
    def _raise(signum, frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except ValueError:
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


@contextlib.contextmanager
def _signals_stop(frontend) -> Iterator[None]:
    """SIGINT and SIGTERM stop ``frontend`` gracefully within the block: each
    requests the shutdown and wakes the loop through the frontend's wakeup
    socket (:func:`signal.set_wakeup_fd`).  No-op outside the main thread."""
    def _stop(signum, frame):
        frontend.request_shutdown(f"received {signal.Signals(signum).name}")

    try:
        previous_fd = signal.set_wakeup_fd(frontend.wakeup_fd)
    except ValueError:
        yield
        return
    previous = {signum: signal.signal(signum, _stop) for signum in (signal.SIGINT, signal.SIGTERM)}
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        signal.set_wakeup_fd(previous_fd)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def run_scenario_command(args: argparse.Namespace) -> int:
    if args.list:
        rows = [
            [name, NAMED_SCENARIOS[name].get("engine", "now"), NAMED_SCENARIOS[name].get("steps", "-")]
            for name in sorted(NAMED_SCENARIOS)
        ]
        print(format_table(["scenario", "engine", "steps"], rows))
        return 0
    if args.spec and args.name:
        print("run-scenario takes --name or --spec, not both", file=sys.stderr)
        return 2
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            scenario = Scenario.from_json(handle.read())
    elif args.name:
        scenario = named_scenario(args.name, seed=args.seed)
    else:
        print("run-scenario needs --name, --spec or --list", file=sys.stderr)
        return 2
    if args.steps is not None:
        scenario.steps = args.steps

    if args.shards is not None and args.shards < 1:
        raise ConfigurationError("--shards must be >= 1")
    if args.checkpoint_every is not None and args.checkpoint is None:
        raise ConfigurationError("--checkpoint-every needs --checkpoint (the file to write)")
    workers = _workers_for(scenario, args.shards)
    if args.barrier_interval is not None:
        if not scenario.shards:
            raise ConfigurationError(
                "--barrier-interval applies to sharded runs "
                "(give --shards or a scenario with a shards field)"
            )
        # Semantic, so it rides in the spec the trace header and every
        # checkpoint carry: resume and replay run the same barrier schedule.
        scenario.shard_options = dict(
            scenario.shard_options or {}, barrier_interval=args.barrier_interval
        )

    corruption = CorruptionTrajectoryProbe()
    costs = CostLedgerProbe()
    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        with _terminate_as_interrupt():
            session = record_scenario(
                scenario,
                trace_path=args.record,
                index_every=args.index_every,
                checkpoint_path=args.checkpoint,
                checkpoint_every=args.checkpoint_every,
                probes=[corruption, costs],
                trace_format=args.trace_format,
                flush_every=args.flush_every,
                workers=workers,
            )
    except KeyboardInterrupt:
        # record_scenario's abort path already flushed the partial trace
        # (and the last checkpoint, if any, is intact on disk) before the
        # interrupt reached us; report cleanly instead of a traceback.
        print("run-scenario: interrupted", file=sys.stderr)
        if args.record:
            print(
                f"run-scenario: partial trace flushed to {args.record} "
                "(replayable up to its last complete frame)",
                file=sys.stderr,
            )
        if args.checkpoint:
            print(
                f"run-scenario: resume from the last checkpoint with: "
                f"repro resume --checkpoint {args.checkpoint}",
                file=sys.stderr,
            )
        return EXIT_INTERRUPTED
    finally:
        if profiler is not None:
            profiler.disable()
    if profiler is not None:
        try:
            profiler.dump_stats(args.profile)
        except OSError as error:
            print(f"run-scenario: cannot write profile: {error}", file=sys.stderr)
            return 2
    result = session.result

    print(f"scenario {scenario.name!r}: engine={scenario.engine}, N={scenario.max_size}, "
          f"tau={scenario.tau}, seed={scenario.seed}")
    print(result.summary_table())
    print(f"final state hash: {session.final_state_hash}")
    if args.record:
        print(f"trace recorded to {args.record}")
    if args.checkpoint:
        print(f"checkpoint written to {args.checkpoint}")
    if args.profile:
        print(f"profile written to {args.profile}")
    summary = corruption.summary()
    print(
        format_table(
            ["mean worst corruption", "p99 worst", "max worst", "steps >= 1/3"],
            [[f"{summary.mean:.3f}", f"{summary.p99:.3f}", f"{summary.maximum:.3f}",
              summary.steps_above_threshold]],
        )
    )
    cost_rows = [
        [name, costs.count(name), f"{costs.mean_messages(name):.0f}"]
        for name in sorted(costs.messages_by_operation)
    ]
    if cost_rows:
        print(format_table(["operation", "count", "mean messages"], cost_rows))
    # The shard coordinator's composite sweep needs the workers it closed.
    if not scenario.shards:
        invariants = session.engine.check_invariants(check_honest_majority=False)
        print(f"structural invariants: {'OK' if invariants.holds else invariants.violations}")
    return 0


def run_resume_command(args: argparse.Namespace) -> int:
    if args.shards is not None and args.shards < 1:
        raise ConfigurationError("--shards must be >= 1")
    session = resume_from_checkpoint(
        args.checkpoint,
        steps=args.steps,
        checkpoint_every=args.checkpoint_every,
        workers=args.shards or 1,
    )
    result = session.result
    print(f"resumed from {args.checkpoint}: ran {result.steps} more step(s), "
          f"{result.events} event(s)")
    print(result.summary_table())
    print(f"final state hash: {session.final_state_hash}")
    return 0


def run_replay_command(args: argparse.Namespace) -> int:
    if (args.to_step is None) != (args.checkpoint is None):
        raise ConfigurationError("--to-step and --checkpoint must be given together")
    if args.to_step is not None:
        try:
            result = checkpoint_from_trace(
                args.trace, to_step=args.to_step, checkpoint_path=args.checkpoint
            )
        except TraceDivergenceError as error:
            # Same contract as plain replay: divergence is exit 1, not a
            # usage error.
            print(f"replay DIVERGED: {error}", file=sys.stderr)
            return 1
        print(
            f"verified {result.verified_events} event(s) and {result.hash_checks} "
            f"state-hash frame(s) up to step {result.steps_done}"
        )
        print(f"checkpoint written to {result.checkpoint_path} "
              f"(resume with: repro resume --checkpoint {result.checkpoint_path})")
        print(f"state hash at step {result.steps_done}: {result.state_hash}")
        return 0
    report = replay_trace(args.trace)
    print(report.summary())
    if report.recorded_final_hash is not None:
        print(f"recorded final hash: {report.recorded_final_hash}")
    print(f"replayed final hash: {report.final_hash}")
    return 0 if report.ok else 1


def run_trace_diff_command(args: argparse.Namespace) -> int:
    diff = trace_diff(args.first, args.second)
    for note in diff.notes:
        print(f"note: {note}")
    print(diff.summary())
    if diff.diverged:
        if diff.first_frame is not None:
            print(f"first:  {diff.first_frame}")
        if diff.second_frame is not None:
            print(f"second: {diff.second_frame}")
    return 1 if diff.diverged else 0


def run_sweep_command(args: argparse.Namespace) -> int:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = SweepSpec.from_json(handle.read())
    elif args.name:
        spec = SweepSpec(name=f"sweep-{args.name}", preset=args.name)
    else:
        print("run-sweep needs --name or --spec", file=sys.stderr)
        return 2
    for axis in args.grid:
        if "=" not in axis:
            raise ConfigurationError(f"malformed --grid {axis!r} (expected FIELD=V1,V2)")
        key, _, values = axis.partition("=")
        spec.grid[key] = [_parse_grid_value(value) for value in values.split(",") if value]
    if args.seeds:
        spec.seeds = [int(seed) for seed in args.seeds.split(",") if seed]
    elif args.num_seeds:
        spec.seeds = [args.seed + offset for offset in range(args.num_seeds)]
    if args.steps is not None:
        spec.steps = args.steps
    if args.workers is not None:
        spec.workers = args.workers
    metrics = [metric for metric in args.metrics.split(",") if metric]
    unknown = [metric for metric in metrics if metric not in AGGREGATED_METRICS]
    if unknown:
        raise ConfigurationError(f"unknown metrics {unknown}")
    runner = SweepRunner(spec)
    result = runner.run(resume_path=args.resume)

    print(
        f"sweep {spec.name!r}: {len(result.points())} grid point(s) x "
        f"{len(spec.seeds)} seed(s) = {len(result.records)} runs "
        f"across {result.workers_used} worker process(es)"
    )
    if args.resume:
        print(
            f"resume file {args.resume}: {runner.resumed_count} unit(s) reused, "
            f"{len(result.records) - runner.resumed_count} executed"
        )
    print(result.summary_table(metrics=metrics))
    print("cells are mean ± 95% CI half-width over seeds (normal approximation)")
    failures = result.failures()
    if failures:
        print(
            f"run-sweep: {len(failures)} unit(s) failed after retry "
            "(excluded from aggregates; re-run with --resume to retry them):",
            file=sys.stderr,
        )
        for record in failures:
            label = ", ".join(f"{k}={v}" for k, v in sorted(record["point"].items())) or "(base)"
            print(f"  {label} seed={record['seed']}: {record['error']}", file=sys.stderr)
        return 1
    return 0


def run_serve_command(args: argparse.Namespace) -> int:
    from .service import LiveEngineSession, live_scenario

    if args.shards < 0:
        raise ConfigurationError("--shards must be >= 0 (0 = classic backend)")
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            scenario = Scenario.from_json(handle.read())
        # A live service has no event generator: clients are the
        # workload.  Strip batch-run fields so the recorded scenario
        # describes exactly what replay needs — the engine bootstrap.
        scenario.workload = None
        scenario.adversary = None
        scenario.steps = 0
    else:
        scenario = live_scenario(
            name="live-service-sharded" if args.shards else "live-service",
            seed=args.seed,
            max_size=args.max_size,
            initial_size=args.initial_size,
            tau=args.tau,
        )
    workers = _workers_for(scenario, args.shards)
    session = LiveEngineSession(scenario, workers=workers)
    if args.record:
        session.attach_trace(
            args.record,
            index_every=args.index_every,
            trace_format=args.trace_format,
            flush_every=args.flush_every,
        )
    from .service.frontend import ServiceFrontend

    frontend = ServiceFrontend(
        session,
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
    )
    try:
        with _signals_stop(frontend):
            frontend.start()
            backend = (
                f"sharded x{scenario.shards} ({workers} worker(s))"
                if scenario.shards
                else "single engine"
            )
            print(
                f"serving scenario {scenario.name!r} on {frontend.host}:{frontend.port} "
                f"(N={scenario.max_size}, n={session.network_size}, {backend}, "
                f"queue bound {frontend.queue.maxsize})"
            )
            if args.record:
                print(f"recording churn events to {args.record} ({args.trace_format})")
            sys.stdout.flush()
            frontend.serve_until_shutdown()
    except Exception as error:
        if frontend.pump_error is None:
            raise  # not the pump: a bind failure and the like
        # The frontend already failed in-flight requests with 'failed' and
        # sealed the trace crashed-shape; report the failure and exit non-zero.
        print(f"serve: engine pump failed: {error!r}", file=sys.stderr)
        if args.record:
            print(
                f"trace sealed without end frame (crashed-run shape): {args.record}",
                file=sys.stderr,
            )
        return 1

    print(
        f"served {session.events_applied} churn event(s), "
        f"{frontend.responses_sent} response(s) over "
        f"{frontend.connections_served} connection(s); "
        f"queue accepted {frontend.queue.accepted}, "
        f"fast-failed {frontend.queue.rejected}"
    )
    if session.operations:
        print(
            format_table(
                ["operation", "count"],
                [[name, count] for name, count in sorted(session.operations.items())],
            )
        )
    if frontend.shutdown_reason:
        print(f"shutdown: {frontend.shutdown_reason}")
    if args.record:
        print(f"trace recorded to {args.record} (verify with: repro replay --trace {args.record})")
    return 0


def run_load_command(args: argparse.Namespace) -> int:
    import json

    from .service.loadgen import drive_load
    from .workloads.arrivals import (
        DiurnalProfile,
        LogNormalSessions,
        PoissonArrivals,
        load_arrival_trace,
        parse_mix,
    )

    if args.arrivals:
        arrivals = load_arrival_trace(args.arrivals)
        span = arrivals[-1].at if arrivals else 0.0
        offered = len(arrivals) / span if span > 0 else float(len(arrivals))
    else:
        diurnal = None
        if args.diurnal:
            day = args.day_length if args.day_length is not None else args.duration
            diurnal = DiurnalProfile(day, amplitude=args.diurnal_amplitude)
        if args.sessions == "lognormal":
            # The plain-mix default includes join/leave weights, which a
            # session generator rejects (churn comes from the lifecycle);
            # only a mix the user actually set overrides the session mix.
            mix = parse_mix(args.mix) if args.mix != LOAD_DEFAULT_MIX else None
            process = LogNormalSessions(
                rate=args.rate,
                duration=args.duration,
                mean_session=args.mean_session,
                sigma=args.sigma,
                op_rate=args.op_rate,
                mix=mix,
                seed=args.seed,
                diurnal=diurnal,
            )
        else:
            process = PoissonArrivals(
                rate=args.rate,
                duration=args.duration,
                mix=parse_mix(args.mix),
                seed=args.seed,
                diurnal=diurnal,
            )
        arrivals = process.schedule()
        offered = args.rate
    if not arrivals:
        raise ConfigurationError("the arrival schedule is empty")

    try:
        with _terminate_as_interrupt():
            report = drive_load(
                args.host,
                args.port,
                arrivals,
                offered_rate=offered,
                connections=args.connections,
                shutdown_after=args.shutdown_after,
            )
    except KeyboardInterrupt:
        print("load: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED

    print(
        f"offered {offered:.1f} req/s ({report.sent} request(s) over "
        f"{report.duration:.1f}s): {report.succeeded} ok, "
        f"achieved {report.achieved_rate:.1f} req/s, "
        f"client late p99 {report.late_ms_p99:.2f} ms"
    )
    print(report.summary_table())
    if report.overloaded:
        print(
            f"{report.overloaded} request(s) fast-failed 'overloaded' "
            "(backpressure working as designed; raise serve --max-queue or lower --rate)"
        )
    if args.save_report:
        try:
            with open(args.save_report, "w", encoding="utf-8") as handle:
                json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            print(f"report saved to {args.save_report}")
        except OSError as error:
            print(f"load: cannot write report: {error}", file=sys.stderr)
            return 2
    if not report.ok:
        print(
            f"load: {report.failed} hard failure(s), {report.missing} "
            "unanswered request(s)",
            file=sys.stderr,
        )
        return 1
    if args.strict and report.overloaded:
        print(
            f"load: --strict and {report.overloaded} overloaded response(s)",
            file=sys.stderr,
        )
        return 1
    return 0


#: ``command -> handler``; every handler takes the parsed arguments and
#: returns the exit code.
COMMANDS = {
    "run-scenario": run_scenario_command,
    "run-sweep": run_sweep_command,
    "resume": run_resume_command,
    "replay": run_replay_command,
    "trace-diff": run_trace_diff_command,
    "serve": run_serve_command,
    "load": run_load_command,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ConfigurationError, OSError, ValueError) as error:
        # The usage-error path of every command: bad flags or specs
        # (ValueError covers malformed JSON), unreadable inputs, unwritable
        # --record/--checkpoint paths, an unreachable server.
        print(f"{args.command}: {error}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print(f"{args.command}: internal error", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
