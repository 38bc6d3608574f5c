"""Recording and resuming whole scenario runs (the CLI's backing functions).

:func:`record_scenario` runs a :class:`~repro.scenarios.scenario.Scenario`
with a :class:`~repro.trace.probes.TraceProbe` and/or a
:class:`~repro.trace.probes.CheckpointProbe` attached — one call replaces
the build-engine/build-runner/attach/finalize dance.

:func:`resume_from_checkpoint` restores the engine and the event source
from a checkpoint file and continues the run.  The continued run is
bit-identical to the uninterrupted one (property-tested in
``tests/test_trace_checkpoint.py``): same events, same RNG draws, same
final state hash.  Probe measurements restart at the resume point — a
resumed run's corruption series covers the resumed segment only.

:func:`checkpoint_from_trace` turns any recorded trace into a library of
resume points: it re-drives the scenario's event source against the
recorded frames (verifying every event and index hash on the way) and
materialises a full :class:`~repro.trace.checkpoint.Checkpoint` at any
recorded step — the CLI's ``replay --to-step N --checkpoint out.json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import ConfigurationError
from ..scenarios.bus import DEFAULT_PROBE_BUFFER, step_record
from ..scenarios.probes import Probe
from ..scenarios.runner import RunResult, SimulationRunner, bind_event_source
from ..scenarios.scenario import Scenario
from .checkpoint import Checkpoint
from .codec import DEFAULT_FLUSH_EVERY
from .hashing import state_hash
from .log import DEFAULT_INDEX_EVERY, TraceReader, churn_event_from_frame
from .probes import CheckpointProbe, TraceProbe
from .replay import check_event_frame


@dataclass
class SessionResult:
    """A run result plus the recording artefacts it produced."""

    result: RunResult
    engine: object
    final_state_hash: str
    trace_path: Optional[str] = None
    checkpoint_path: Optional[str] = None


def record_scenario(
    scenario: Scenario,
    steps: Optional[int] = None,
    trace_path: Optional[str] = None,
    index_every: int = DEFAULT_INDEX_EVERY,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    probes: Sequence[Probe] = (),
    trace_format: str = "jsonl",
    flush_every: int = DEFAULT_FLUSH_EVERY,
    probe_buffer: int = DEFAULT_PROBE_BUFFER,
) -> SessionResult:
    """Run ``scenario`` with trace recording and/or periodic checkpointing.

    With ``checkpoint_path`` set, a final checkpoint is always written when
    the run completes (whatever the cadence), so an interrupted *sequence*
    of runs can also resume from a completed run's end state.

    ``trace_format`` / ``flush_every`` select the trace's physical encoding
    and write-buffer cadence; ``probe_buffer`` the observation-bus batch
    size for buffered probes.
    """
    engine = scenario.build_engine()
    attached = list(probes)
    trace_probe: Optional[TraceProbe] = None
    checkpoint_probe: Optional[CheckpointProbe] = None
    if trace_path is not None:
        trace_probe = TraceProbe(
            trace_path,
            index_every=index_every,
            scenario=scenario,
            trace_format=trace_format,
            flush_every=flush_every,
        )
        attached.append(trace_probe)
    if checkpoint_path is not None:
        cadence = checkpoint_every if checkpoint_every is not None else max(1, scenario.steps // 4)
        checkpoint_probe = CheckpointProbe(checkpoint_path, cadence, scenario=scenario)
        attached.append(checkpoint_probe)

    runner = scenario.build_runner(probes=attached, engine=engine, probe_buffer=probe_buffer)
    if checkpoint_probe is not None:
        checkpoint_probe.bind(runner)
    try:
        result = runner.run(scenario.steps if steps is None else steps)
    except BaseException:
        # Writes are buffered: flush what the run observed before dying so
        # the trace is complete to the interrupt point (no end frame — the
        # crashed-run shape replay already tolerates).
        if trace_probe is not None:
            trace_probe.abort()
        raise
    if trace_probe is not None:
        trace_probe.finalize(engine)
    if checkpoint_probe is not None:
        # run() has already folded this run's steps into total_steps.
        checkpoint_probe.write(engine, step_index=0)
    return SessionResult(
        result=result,
        engine=engine,
        final_state_hash=state_hash(engine),
        trace_path=trace_path,
        checkpoint_path=checkpoint_path,
    )


def resume_from_checkpoint(
    checkpoint_path: str,
    steps: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    probes: Sequence[Probe] = (),
    workers: int = 1,
) -> SessionResult:
    """Continue an interrupted run from its last checkpoint.

    ``steps`` is the number of *additional* time steps to execute; by
    default the run completes its original budget
    (``scenario.steps - steps_done``).  When ``checkpoint_every`` is set
    the resumed run keeps checkpointing to the same file.

    Sharded checkpoints (``repro-sharded-checkpoint`` documents, written by
    ``run-scenario --shards``) are detected by format and delegated to
    :func:`repro.shard.session.resume_sharded_checkpoint`; ``workers`` sets
    the resumed run's worker-process count (results never depend on it) and
    is ignored for classic checkpoints.
    """
    if not os.path.exists(checkpoint_path):
        raise ConfigurationError(f"checkpoint file {checkpoint_path!r} does not exist")
    with open(checkpoint_path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("format") == "repro-sharded-checkpoint":
        # Local import: repro.shard builds on top of repro.trace.
        from ..shard.session import resume_sharded_checkpoint

        return resume_sharded_checkpoint(
            checkpoint_path,
            workers=workers,
            steps=steps,
            checkpoint_every=checkpoint_every,
            probes=probes,
        )
    checkpoint = Checkpoint(data)
    scenario_dict = checkpoint.scenario_dict
    if scenario_dict is None:
        raise ConfigurationError(
            "checkpoint carries no scenario spec; resume needs one to rebuild "
            "the event source"
        )
    scenario = Scenario.from_dict(scenario_dict)
    engine = checkpoint.restore_engine()
    source = scenario.build_source(engine)
    checkpoint.restore_source(source)

    attached = list(probes)
    checkpoint_probe: Optional[CheckpointProbe] = None
    if checkpoint_every is not None:
        checkpoint_probe = CheckpointProbe(checkpoint_path, checkpoint_every, scenario=scenario)
        attached.append(checkpoint_probe)

    runner = SimulationRunner(
        engine,
        source,
        probes=attached,
        max_idle_streak=scenario.max_idle_streak,
        keep_reports=scenario.keep_reports,
        name=scenario.name,
    )
    # Seed the cumulative counters so continued checkpoints carry totals
    # relative to the original run's start, not the resume point.
    runner.total_steps = checkpoint.steps_done
    runner.total_events = checkpoint.events_done
    if checkpoint_probe is not None:
        checkpoint_probe.bind(runner)

    remaining = steps if steps is not None else max(0, scenario.steps - checkpoint.steps_done)
    result = runner.run(remaining)
    if checkpoint_probe is not None:
        checkpoint_probe.write(engine, step_index=0)
    else:
        # Always advance the checkpoint to the resumed run's end state, so
        # repeated resumes make progress instead of redoing the same window.
        Checkpoint.capture(
            engine,
            source=source,
            scenario=scenario,
            steps_done=runner.total_steps,
            events_done=runner.total_events,
        ).save(checkpoint_path)
    return SessionResult(
        result=result,
        engine=engine,
        final_state_hash=state_hash(engine),
        trace_path=None,
        checkpoint_path=checkpoint_path,
    )


class TraceDivergenceError(ConfigurationError):
    """The re-driven run did not match the recorded trace.

    Raised by :func:`checkpoint_from_trace` so callers (the CLI) can
    distinguish a genuine determinism divergence (exit 1, like ``replay``)
    from a usage problem (exit 2).
    """


@dataclass
class TraceCheckpointResult:
    """Outcome of materialising a checkpoint from a recorded trace."""

    checkpoint_path: str
    steps_done: int
    events_done: int
    state_hash: str
    verified_events: int
    hash_checks: int


def checkpoint_from_trace(
    trace: "TraceReader | str",
    to_step: int,
    checkpoint_path: str,
) -> TraceCheckpointResult:
    """Materialise a resumable :class:`Checkpoint` at step ``to_step`` of a trace.

    A trace records events but not the event source's RNG streams, so the
    checkpoint is built by *re-driving* the scenario from its seed: the
    source generates each step's event exactly as the original run did, the
    generated event is checked against the recorded frame (kind, role, node,
    contact), applied, and the step observables and index-frame state hashes
    are verified — any mismatch raises, because a checkpoint taken past a
    divergence would silently resume a different run.  At step ``to_step``
    the full engine + source state is captured, turning any trace into a
    library of verified resume points (``resume --checkpoint`` continues
    bit-identically to the uninterrupted run).

    ``to_step`` must not exceed the last recorded event's step index —
    beyond it the trace carries nothing to verify against.
    """
    reader = trace if isinstance(trace, TraceReader) else TraceReader(trace)
    scenario_dict = reader.scenario
    if scenario_dict is None:
        raise ConfigurationError(
            "trace header carries no scenario spec; checkpoint-from-trace "
            "needs one to rebuild the event source"
        )
    if scenario_dict.get("workload") is None and scenario_dict.get("adversary") is None:
        raise ConfigurationError(
            "this trace records a live `serve` session: clients were the event "
            "source, so there is none to checkpoint — verify it with plain "
            "`replay --trace`"
        )
    if reader.header.get("engine") == "sharded":
        raise ConfigurationError(
            "this trace records a sharded run; checkpoint-from-trace re-drives "
            "a single engine — resume sharded runs with `resume --checkpoint` "
            "from the checkpoint `run-scenario --shards --checkpoint` wrote"
        )
    if to_step < 1:
        raise ConfigurationError("to_step must be >= 1")
    frames = [frame for frame in reader.frames if frame.get("t") in ("ev", "x")]
    event_steps = [frame["i"] for frame in frames if frame["t"] == "ev"]
    if not event_steps:
        raise ConfigurationError("trace contains no event frames")
    if to_step > event_steps[-1]:
        raise ConfigurationError(
            f"to_step {to_step} is beyond the last recorded event "
            f"(step {event_steps[-1]}); the trace cannot verify past it"
        )

    scenario = Scenario.from_dict(scenario_dict)
    engine = scenario.build_engine()
    source = scenario.build_source(engine)
    next_event = bind_event_source(engine, source)

    def diverged(step: int, reason: str) -> TraceDivergenceError:
        return TraceDivergenceError(
            f"trace diverged from the re-driven scenario at step {step}: {reason}"
        )

    step_index = 0
    events_applied = 0
    hash_checks = 0

    def run_idle_until(target: int) -> None:
        """Advance through steps the trace recorded no event for."""
        nonlocal step_index
        while step_index < target:
            step_index += 1
            event = next_event()
            if event is not None:
                raise diverged(
                    step_index, "source produced an event where the trace recorded none"
                )

    for frame in frames:
        if frame["t"] == "ev":
            if frame["i"] > to_step:
                break
            run_idle_until(frame["i"] - 1)
            step_index += 1
            event = next_event()
            if event is None:
                raise diverged(step_index, "source idled where the trace recorded an event")
            recorded = churn_event_from_frame(frame)
            if (event.kind, event.role, event.node_id, event.contact_cluster) != (
                recorded.kind,
                recorded.role,
                recorded.node_id,
                recorded.contact_cluster,
            ):
                raise diverged(
                    step_index,
                    f"source produced {event!r} but the trace recorded {recorded!r}",
                )
            report = engine.apply_event(event)
            events_applied += 1
            mismatch = check_event_frame(frame, step_record(report, frame["i"]))
            if mismatch is not None:
                raise diverged(step_index, mismatch["reason"])
        else:  # index frame
            if frame["i"] > to_step:
                break
            if frame["i"] > step_index or frame.get("ev") != events_applied:
                # Index frames are written at their event's step, after it:
                # one that precedes its events or disagrees on the count is
                # a divergence signal, not something to skip quietly.
                raise diverged(
                    frame["i"],
                    f"index frame inconsistent with the re-driven run "
                    f"(frame records {frame.get('ev')} events at step {frame['i']}, "
                    f"re-driven: {events_applied} events, step {step_index})",
                )
            hash_checks += 1
            replayed = state_hash(engine)
            if replayed != frame["h"]:
                raise diverged(
                    frame["i"],
                    f"state hash mismatch at index frame "
                    f"({replayed[:12]} != {frame['h'][:12]})",
                )
    # Idle steps between the last applied event and the requested step.
    run_idle_until(to_step)

    Checkpoint.capture(
        engine,
        source=source,
        scenario=scenario,
        steps_done=step_index,
        events_done=events_applied,
    ).save(checkpoint_path)
    return TraceCheckpointResult(
        checkpoint_path=checkpoint_path,
        steps_done=step_index,
        events_done=events_applied,
        state_hash=state_hash(engine),
        verified_events=events_applied,
        hash_checks=hash_checks,
    )
