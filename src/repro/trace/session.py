"""Recording and resuming whole scenario runs (the CLI's backing functions).

:func:`record_scenario` runs a :class:`~repro.scenarios.scenario.Scenario`
with trace recording and/or periodic checkpointing — one call replaces the
build/attach/finalize dance — and :func:`resume_from_checkpoint` restores
engine(s) and event source from a checkpoint file and continues the run.
Both pick the backend from ``scenario.shards``, as the live session does:

* ``shards == 0`` — the single engine under the per-event
  :class:`~repro.scenarios.runner.SimulationRunner`, observed by a
  :class:`~repro.trace.probes.TraceProbe` / :class:`~repro.trace.probes.
  CheckpointProbe` (the per-event loop also serves baselines, inline probes
  and per-event stop conditions, so it stays its own loop);
* ``shards >= 1`` — the :class:`~repro.trace.backend.ShardBackend`, whose
  coordinator runs the scenario in windows; a :class:`_WindowedSegment`
  writes each collected window and checkpoints between windows.
  ``workers`` and ``pipeline`` are execution choices, never result bits.

Either way the continued run is bit-identical to the uninterrupted one
(property-tested in ``tests/test_trace_checkpoint.py`` and
``tests/test_batch_sessions.py``): same events, same RNG draws, same final
state hash, wherever the cut fell.  Probe measurements restart at the resume
point — a resumed run's corruption series covers the resumed segment only.

:func:`checkpoint_from_trace` turns any recorded single-engine trace into a
library of resume points: it re-drives the scenario's event source against
the recorded frames (verifying every event and index hash on the way) and
materialises a full :class:`~repro.trace.checkpoint.Checkpoint` at any
recorded step — the CLI's ``replay --to-step N --checkpoint out.json``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from ..errors import ConfigurationError
from ..scenarios.bus import DEFAULT_PROBE_BUFFER, StepRecord, step_record
from ..scenarios.probes import Probe
from ..scenarios.runner import RunResult, SimulationRunner
from ..scenarios.scenario import Scenario
from .backend import ShardBackend
from .checkpoint import Checkpoint
from .codec import DEFAULT_FLUSH_EVERY
from .hashing import state_hash
from .log import DEFAULT_INDEX_EVERY, TraceReader, TraceWriter, event_frame_from_record
from .probes import CheckpointProbe, TraceProbe
from .replay import frame_mismatch


@dataclass
class SessionResult:
    """A run result plus the recording artefacts it produced.

    ``engine`` is what ran: the engine, or a sharded run's (closed)
    coordinator — counters, phase timers, directory and ``facade`` readable.
    """

    result: RunResult
    engine: object
    final_state_hash: str
    trace_path: Optional[str] = None
    checkpoint_path: Optional[str] = None


def _save_checkpoint(path: str, scenario: Scenario, engine, driver) -> None:
    """Checkpoint ``engine`` with its driver's source and cumulative counters.

    ``driver`` is the :class:`SimulationRunner`, or the shard coordinator
    (which is its own engine).  Every segment ends on one of these whatever
    the cadence: a sequence of runs resumes from the file, and repeated
    resumes make progress instead of redoing the same stretch.
    """
    Checkpoint.capture(
        engine,
        source=driver.source,
        scenario=scenario,
        steps_done=driver.total_steps,
        events_done=driver.total_events,
    ).save(path)


def _run_stepwise(
    scenario: Scenario,
    runner: SimulationRunner,
    steps: int,
    trace_probe: Optional[TraceProbe],
    checkpoint_path: Optional[str],
    checkpoint_every: Optional[int],
) -> SessionResult:
    """One batch segment on the single engine (record's and resume's shared body)."""
    engine = runner.engine
    if checkpoint_every is not None:
        checkpoint_probe = CheckpointProbe(checkpoint_path, checkpoint_every, scenario=scenario)
        checkpoint_probe.bind(runner)
        runner.probes.append(checkpoint_probe)
    try:
        result = runner.run(steps)
        if trace_probe is not None:
            trace_probe.finalize(engine)
    finally:
        # Writes are buffered: when the run dies, flush what it observed so
        # the trace is complete to the interrupt point (no end frame — the
        # crashed-run shape replay tolerates).  No-op once finalized.
        if trace_probe is not None:
            trace_probe.abort()
    if checkpoint_path is not None:
        _save_checkpoint(checkpoint_path, scenario, engine, runner)
    return SessionResult(
        result=result,
        engine=engine,
        final_state_hash=state_hash(engine),
        trace_path=trace_probe.path if trace_probe is not None else None,
        checkpoint_path=checkpoint_path,
    )


class _WindowedSegment:
    """One batch segment on the shard backend, and what it leaves on disk.

    The coordinator's loop hands every collected window to :meth:`window`;
    before routing ahead of a window it asks :meth:`due`, because an index
    frame's hash and a checkpoint's snapshot both round-trip the workers
    and need the pipe drained.
    """

    def __init__(
        self,
        backend: ShardBackend,
        writer: Optional[TraceWriter],
        checkpoint_path: Optional[str],
        checkpoint_every: Optional[int],
    ) -> None:
        self._backend = backend
        self._coordinator = backend.coordinator
        self._writer = writer
        self._checkpoint_path = checkpoint_path
        self._checkpoint_every = checkpoint_every
        self._checkpointed_at = self._coordinator.total_events

    def _checkpoint_due(self, pending: int) -> bool:
        if self._checkpoint_every is None:
            return False
        events = self._coordinator.total_events + pending
        return events - self._checkpointed_at >= self._checkpoint_every

    def due(self, pending: int) -> bool:
        """Will the window that adds ``pending`` events end on a hash or snapshot?"""
        writer = self._writer
        return (writer is not None and writer.index_due(pending)) or self._checkpoint_due(pending)

    def window(self, records: Sequence[StepRecord]) -> None:
        if self._writer is not None:
            self._writer.write_window(records, self._coordinator.total_steps, self._backend)
        if self._checkpoint_due(0):
            self.checkpoint()

    def checkpoint(self) -> None:
        """Capture the drained coordinator and atomically replace the file."""
        coordinator = self._coordinator
        _save_checkpoint(self._checkpoint_path, coordinator.scenario, coordinator, coordinator)
        self._checkpointed_at = coordinator.total_events

    def run(self, steps: int) -> SessionResult:
        """Run, seal the trace with the final composite hash, close the backend.

        The checkpoint is always left at the segment's end state; a segment
        that dies mid-way leaves the trace flushed without an end frame
        (crashed-run shape).
        """
        writer = self._writer
        try:
            if self._checkpoint_every is not None and self._checkpoint_every < 1:
                raise ConfigurationError("checkpoint cadence must be >= 1 event")
            result = self._coordinator.run(steps, self)
            final_hash = self._backend.state_hash()
            if writer is not None:
                writer.close(final_hash=final_hash)
            if self._checkpoint_path is not None:
                self.checkpoint()
        finally:
            if writer is not None:
                writer.close()  # idempotent; no end frame unless sealed above
            self._backend.close()
        return SessionResult(
            result=result,
            engine=self._coordinator,
            final_state_hash=final_hash,
            trace_path=writer.path if writer is not None else None,
            checkpoint_path=self._checkpoint_path,
        )


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
    workers: int = 1,
    pipeline: bool = True,
) -> SessionResult:
    """Run ``scenario`` with trace recording and/or periodic checkpointing.

    With ``checkpoint_path`` set, checkpoints are taken every
    ``checkpoint_every`` events (default: a quarter of the step budget) and
    a final one is always written when the run completes, so an interrupted
    *sequence* of runs can also resume from a completed run's end state.

    ``trace_format`` / ``flush_every`` select the trace's physical encoding
    and write-buffer cadence; ``probe_buffer`` the observation-bus batch
    size for buffered probes.  ``workers`` (worker processes) and
    ``pipeline`` (route ahead of executing windows) apply to sharded
    scenarios only and never change a result bit.
    """
    if steps is None:
        steps = scenario.steps
    if checkpoint_path is None:
        checkpoint_every = None
    elif checkpoint_every is None:
        checkpoint_every = max(1, scenario.steps // 4)

    if scenario.shards:
        backend = ShardBackend(
            scenario,
            workers=workers,
            probes=probes,
            probe_buffer=probe_buffer,
            pipeline=pipeline,
        )
        writer: Optional[TraceWriter] = None
        if trace_path is not None:
            try:
                writer = TraceWriter(trace_path, index_every, trace_format, flush_every)
                writer.write_header(scenario.to_dict(), engine_kind="sharded")
            except BaseException:
                backend.close()
                raise
        return _WindowedSegment(backend, writer, checkpoint_path, checkpoint_every).run(steps)

    attached = list(probes)
    trace_probe: Optional[TraceProbe] = None
    if trace_path is not None:
        trace_probe = TraceProbe(
            trace_path,
            index_every=index_every,
            scenario=scenario,
            trace_format=trace_format,
            flush_every=flush_every,
        )
        attached.append(trace_probe)
    runner = scenario.build_runner(probes=attached, probe_buffer=probe_buffer)
    return _run_stepwise(scenario, runner, steps, trace_probe, checkpoint_path, checkpoint_every)


def resume_from_checkpoint(
    checkpoint_path: str,
    steps: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    probes: Sequence[Probe] = (),
    workers: int = 1,
    pipeline: bool = True,
) -> SessionResult:
    """Continue an interrupted run from its last checkpoint.

    ``steps`` is the number of *additional* time steps to execute; by
    default the run completes its original budget
    (``scenario.steps - steps_done``).  When ``checkpoint_every`` is set
    the resumed run keeps checkpointing to the same file; either way the
    file is advanced to the resumed run's end state.

    ``workers`` and ``pipeline`` apply to sharded checkpoints only and are
    free to differ from the checkpointed run's — results never depend on
    them.
    """
    checkpoint = Checkpoint.load(checkpoint_path)
    scenario_dict = checkpoint.scenario_dict
    if scenario_dict is None:
        raise ConfigurationError(
            "checkpoint carries no scenario spec; resume needs one to rebuild "
            "the event source"
        )
    scenario = Scenario.from_dict(scenario_dict)
    kind = checkpoint.data.get("engine_kind", "now")
    if kind != ("sharded" if scenario.shards else "now"):
        raise ConfigurationError(
            f"checkpoint holds {kind!r} engine state, which its scenario "
            f"(shards={scenario.shards}) does not run on"
        )
    if steps is None:
        steps = max(0, scenario.steps - checkpoint.steps_done)

    if scenario.shards:
        backend = ShardBackend(
            scenario,
            workers=workers,
            probes=probes,
            pipeline=pipeline,
            checkpoint=checkpoint.data,
        )
        return _WindowedSegment(backend, None, checkpoint_path, checkpoint_every).run(steps)

    runner = scenario.build_runner(probes=probes, engine=checkpoint.restore_engine())
    checkpoint.restore_source(runner.source)
    # Seed the cumulative counters so continued checkpoints carry totals
    # relative to the original run's start, not the resume point.
    runner.total_steps = checkpoint.steps_done
    runner.total_events = checkpoint.events_done
    return _run_stepwise(scenario, runner, steps, None, checkpoint_path, checkpoint_every)


class TraceDivergenceError(ConfigurationError):
    """The re-driven run did not match the recorded trace.

    Raised by :func:`checkpoint_from_trace` so callers (the CLI) can
    distinguish a genuine determinism divergence (exit 1, like ``replay``)
    from a usage problem (exit 2).
    """


def _diverged(step: int, reason: str) -> TraceDivergenceError:
    return TraceDivergenceError(
        f"trace diverged from the re-driven scenario at step {step}: {reason}"
    )


class _TraceVerifier(Probe):
    """Inline probe holding a re-driven run to its recorded frames.

    ``frames`` are the trace's event and index frames up to the target step,
    in file order.  Every applied event must reproduce the next event frame
    — step, generated event and observables, field for field — and every
    index frame behind it must carry the re-driven engine's state hash; the
    first disagreement raises :class:`TraceDivergenceError`, because a
    checkpoint taken past a divergence would silently resume a different
    run.
    """

    name = "trace-verifier"

    def __init__(self, frames: Sequence[Dict[str, Any]]) -> None:
        self.pending = deque(frames)
        self.events = 0
        self.hash_checks = 0

    def on_step(self, engine, report, step_index: int) -> None:
        replayed = event_frame_from_record(step_record(report, step_index))
        mismatch = (
            frame_mismatch(self.pending.popleft(), replayed)
            if self.pending
            else "the trace records no further event"
        )
        if mismatch is not None:
            raise _diverged(step_index, f"recorded frame != re-driven event, {mismatch}")
        self.events += 1
        while self.pending and self.pending[0]["t"] == "x":
            frame = self.pending.popleft()
            # Index frames are written at their event's step, after it: one
            # that sits elsewhere or disagrees on the count is a divergence
            # signal, not something to skip quietly.
            redriven = dict(frame, i=step_index, ev=self.events, h=state_hash(engine))
            mismatch = frame_mismatch(frame, redriven)
            if mismatch is not None:
                raise _diverged(
                    frame["i"], f"index frame inconsistent with the re-driven run, {mismatch}"
                )
            self.hash_checks += 1


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
    checkpoint is built by *re-driving* the scenario from its seed: a
    :class:`~repro.scenarios.runner.SimulationRunner` runs ``to_step``
    steps exactly as the original run did, with a :class:`_TraceVerifier`
    checking each generated event, its observables and the index-frame
    state hashes against the recorded frames.  At step ``to_step`` the full
    engine + source state is captured, turning any trace into a library of
    verified resume points (``resume --checkpoint`` continues
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
            "a single engine — verify it with plain `replay --trace`, and cut "
            "sharded runs with `run-scenario --steps N --checkpoint FILE`, "
            "which `resume --checkpoint FILE` continues from any step"
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
    verifier = _TraceVerifier([frame for frame in frames if frame["i"] <= to_step])
    runner = scenario.build_runner(probes=[verifier])
    runner.run(to_step)
    if verifier.pending:
        raise _diverged(
            verifier.pending[0]["i"], "source idled where the trace recorded an event"
        )

    engine = runner.engine
    Checkpoint.capture(
        engine,
        source=runner.source,
        scenario=scenario,
        steps_done=runner.total_steps,
        events_done=verifier.events,
    ).save(checkpoint_path)
    return TraceCheckpointResult(
        checkpoint_path=checkpoint_path,
        steps_done=runner.total_steps,
        events_done=verifier.events,
        state_hash=state_hash(engine),
        verified_events=verifier.events,
        hash_checks=verifier.hash_checks,
    )
