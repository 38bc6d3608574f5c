"""Opening, recording and resuming whole scenario runs (the CLI's backing functions).

:func:`open_driver` is the one seam every run goes through — batch runs,
sweeps, the live session (:mod:`repro.service.session`) and ``replay`` — so
a replayed trace certifies the very object the recording ran.
:func:`record_scenario` and :func:`resume_from_checkpoint` share one body
(:func:`_run_segment`) that hands the driver a :class:`Recorder`, the only
recorder (single-engine batch, sharded batch and ``serve --record`` alike).
A resumed run is bit-identical to the uninterrupted one (property-tested in
``tests/test_trace_checkpoint.py`` and ``tests/test_batch_sessions.py``):
same events, same RNG draws, same final state hash, wherever the cut fell;
probe measurements restart at the resume point.  :func:`checkpoint_from_trace`
(``replay --to-step N --checkpoint out.json``) re-drives a recorded batch
trace with the one :class:`~repro.trace.replay.TraceVerifier` in the
recorder's seat and materialises a verified checkpoint at step ``N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..errors import ConfigurationError
from ..scenarios.bus import StepRecord
from ..scenarios.probes import Probe
from ..scenarios.runner import NO_SOURCE, RunResult, StopCondition, refuse_run
from ..scenarios.scenario import Scenario
from .checkpoint import Checkpoint
from .log import DEFAULT_FLUSH_EVERY, DEFAULT_INDEX_EVERY, TraceReader, TraceWriter
from .replay import TraceVerifier


@dataclass
class SessionResult:
    """A run result plus the recording artefacts it produced.

    ``engine`` is what ran: the engine, or a sharded run's (closed)
    coordinator — counters, phase timers and directory readable.
    """

    result: RunResult
    engine: object
    final_state_hash: str
    trace_path: Optional[str] = None
    checkpoint_path: Optional[str] = None


def _engine_kind(scenario: Scenario) -> str:
    """The ``engine`` kind a scenario's trace header and checkpoint name."""
    return "sharded" if scenario.shards else "now"


class Recorder:
    """What a recorded run leaves on disk: one window, cadence and seal rule.

    Two callers hand it every collected window of step records through
    :meth:`window`: the batch loop both drivers run,
    :func:`~repro.scenarios.runner.run_windows` (a runner's window is one
    applied event), and :meth:`LiveEngineSession.serve
    <repro.service.session.LiveEngineSession.serve>` (a pump batch's window).

    **Cadence law.**  An index frame sits at the first window boundary at or
    after every ``index_every`` events since the last one, a checkpoint
    likewise for ``checkpoint_every`` — exactly on the multiples when windows
    are one event.  Both read the whole state (a hash or a snapshot may
    round-trip worker processes), so nothing may be in flight under them: a
    driver that routes ahead asks :meth:`due` first.

    **Start-up order.**  Constructing the recorder is the last thing that can
    refuse a run and the first that touches an output file: its caller has
    checked the step budget and built the driver (so the spec was valid),
    the cadence is checked here, and only then is the trace file opened
    (truncated) and its header written.  No event is applied before.

    **Seal.**  ``seal(True)`` ends the trace with the final state hash and
    leaves the checkpoint at the end state, so a sequence of runs resumes
    from the file and repeated resumes make progress; ``seal(False)`` flushes
    what was observed and writes no end frame — the crashed-run shape replay
    verifies up to its last complete frame.

    ``driver`` is the runner or coordinator that applies the events: it is
    what gets hashed, its ``engine`` what gets snapshotted, and its
    ``source``, ``total_steps`` and ``total_events`` are what a checkpoint
    carries and an index frame's step index reads.
    """

    def __init__(
        self,
        scenario: Scenario,
        driver,
        trace_path: Optional[str] = None,
        index_every: int = DEFAULT_INDEX_EVERY,
        trace_format: str = "jsonl",
        flush_every: int = DEFAULT_FLUSH_EVERY,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError("checkpoint cadence must be >= 1 event")
        self._scenario = scenario
        self._driver = driver
        self.trace_path = trace_path
        self.checkpoint_path = checkpoint_path
        self._checkpoint_every = checkpoint_every
        self._events = 0
        self._checkpointed_at = 0
        self.writer: Optional[TraceWriter] = None
        if trace_path is not None:
            self.writer = TraceWriter(trace_path, index_every, trace_format, flush_every)
            self.writer.write_header(scenario.to_dict(), _engine_kind(scenario))

    def _checkpoint_due(self, pending: int) -> bool:
        if self._checkpoint_every is None:
            return False
        return self._events + pending - self._checkpointed_at >= self._checkpoint_every

    def due(self, pending: int) -> bool:
        """Will the window that adds ``pending`` events end on a hash or snapshot?"""
        writer = self.writer
        return (writer is not None and writer.index_due(pending)) or self._checkpoint_due(pending)

    def window(self, records: Sequence[StepRecord]) -> None:
        """Record one collected window; nothing of the run may be in flight."""
        self._events += len(records)
        writer = self.writer
        if writer is not None:
            for record in records:
                writer.write_record(record)
            if writer.index_due():
                writer.write_index(self._driver.total_steps, records[-1], self._driver)
        if self._checkpoint_due(0):
            self.checkpoint()

    def checkpoint(self) -> Checkpoint:
        """Capture engine, source and progress; atomically replace the file."""
        driver = self._driver
        checkpoint = Checkpoint.capture(
            driver.engine,
            source=driver.source,
            scenario=self._scenario,
            steps_done=driver.total_steps,
            events_done=driver.total_events,
        )
        checkpoint.save(self.checkpoint_path)
        self._checkpointed_at = self._events
        return checkpoint

    def seal(self, ok: bool) -> Optional[str]:
        """End the recording (see the class docstring); the final hash if ``ok``."""
        writer = self.writer
        try:
            final_hash = self._driver.state_hash() if ok else None
            if writer is not None:
                writer.close(final_hash)
            if ok and self.checkpoint_path is not None:
                self.checkpoint()
            return final_hash
        finally:
            if writer is not None:
                writer.close()  # idempotent: flushes when the hash above failed


def open_driver(
    scenario: Scenario,
    probes: Sequence[Probe] = (),
    stop_conditions: Sequence[StopCondition] = (),
    workers: int = 1,
    checkpoint: Optional[Checkpoint] = None,
) -> Any:
    """Open ``scenario``'s driver, restored from ``checkpoint`` if given.

    The one fork on ``scenario.shards``: the shard coordinator or a
    :class:`SimulationRunner` over the single engine, either a context
    manager that closes it.  Both carry ``run(steps, recorder)`` (refused
    without a ``source``), ``dispatch(events)`` / ``collect(token)``,
    ``engine`` (what a recorder hashes and snapshots), ``source``, the
    public ``probes`` list, the cumulative ``total_steps`` /
    ``total_events``, ``bus``, ``nodes``, ``params``, ``state_hash()``,
    ``status()``, ``read_views()`` and ``read_model``.  A checkpoint only
    resumes a scenario with a source, which its source state restores onto.
    """
    if checkpoint is not None and scenario.workload is None and scenario.adversary is None:
        raise ConfigurationError(NO_SOURCE.format(scenario.name))
    if scenario.shards:
        # Local import: repro.shard builds on repro.trace, and a single-engine
        # run should not pay for the worker-process machinery.
        from ..shard.coordinator import ShardCoordinator

        return ShardCoordinator(
            scenario,
            workers=workers,
            probes=probes,
            stop_conditions=stop_conditions,
            checkpoint=checkpoint.data if checkpoint is not None else None,
        )
    engine = checkpoint.restore_engine(scenario.engine) if checkpoint is not None else None
    runner = scenario.build_runner(probes=probes, stop_conditions=stop_conditions, engine=engine)
    if checkpoint is not None:
        checkpoint.restore_source(runner.source)
        # Seed the cumulative counters so continued checkpoints carry totals
        # relative to the original run's start, not the resume point.
        runner.total_steps = checkpoint.steps_done
        runner.total_events = checkpoint.events_done
    return runner


def _run_segment(
    scenario: Scenario,
    steps: int,
    probes: Sequence[Probe],
    workers: int,
    checkpoint: Optional[Checkpoint] = None,
    **outputs: Any,
) -> SessionResult:
    """One batch segment (record's and resume's shared body); ``outputs`` are
    the :class:`Recorder`'s trace and checkpoint arguments."""
    with open_driver(scenario, probes, (), workers, checkpoint) as driver:
        # The run refuses these too, but only after the Recorder has truncated
        # the trace: a refused run must leave every output file as it found it.
        refuse_run(driver, steps)
        recorder = Recorder(scenario, driver, **outputs)
        try:
            result = driver.run(steps, recorder)
        except BaseException:
            recorder.seal(ok=False)
            raise
        final_hash = recorder.seal(ok=True)
    return SessionResult(
        result=result,
        engine=driver.engine,
        final_state_hash=final_hash,
        trace_path=recorder.trace_path,
        checkpoint_path=recorder.checkpoint_path,
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
    workers: int = 1,
) -> SessionResult:
    """Run ``scenario`` with trace recording and/or periodic checkpointing.

    With ``checkpoint_path`` set, checkpoints are taken every
    ``checkpoint_every`` events (default: a quarter of the step budget) and
    a final one is always written when the run completes, so an interrupted
    *sequence* of runs can also resume from a completed run's end state.

    ``trace_format`` / ``flush_every`` select the trace's physical encoding
    and write-buffer cadence.  ``workers`` (execution lanes: this
    process and ``workers - 1`` worker processes) applies to sharded
    scenarios only and never changes a result bit.
    """
    if checkpoint_path is None:
        if checkpoint_every is not None:
            raise ConfigurationError("checkpoint_every needs a checkpoint_path")
    elif checkpoint_every is None:
        checkpoint_every = max(1, scenario.steps // 4)
    return _run_segment(
        scenario,
        scenario.steps if steps is None else steps,
        probes,
        workers,
        trace_path=trace_path,
        index_every=index_every,
        trace_format=trace_format,
        flush_every=flush_every,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
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
    the resumed run keeps checkpointing to the same file; either way the
    file is advanced to the resumed run's end state.

    ``workers`` applies to sharded checkpoints only and is free to differ
    from the checkpointed run's — results never depend on it.
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
    if kind != _engine_kind(scenario):
        raise ConfigurationError(
            f"checkpoint holds {kind!r} engine state, which its scenario "
            f"(shards={scenario.shards}) does not run on"
        )
    if steps is None:
        steps = max(0, scenario.steps - checkpoint.steps_done)
    return _run_segment(
        scenario,
        steps,
        probes,
        workers,
        checkpoint,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
    )


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
    driver :func:`open_driver` opens for it (single engine or sharded, as
    recorded) runs ``to_step`` steps exactly as the original run did, with
    the :class:`~repro.trace.replay.TraceVerifier` in the recorder's seat
    checking each generated event, its step and observables, and the state
    hashes against the recorded frames; the first divergence raises
    :class:`~repro.trace.replay.TraceDivergenceError`, because a checkpoint
    taken past it would silently resume a different run.  At step
    ``to_step`` the full engine + source state is captured, turning any
    trace into a library of verified resume points (``resume --checkpoint``
    continues bit-identically to the uninterrupted run, on any worker
    count).

    ``to_step`` must not exceed the last recorded event's step index —
    beyond it the trace carries nothing to verify against — unless the
    trace goes on with a malformed frame: then the run is verified up to it
    and the malformed frame is the divergence.
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
    if to_step < 1:
        raise ConfigurationError("to_step must be >= 1")
    frames = reader.frames[1:]
    event_steps = [frame["i"] for frame in frames if frame["t"] == "ev"]
    last = event_steps[-1] if event_steps else 0
    # A step past the last good event reaches the malformed frame, if any:
    # every frame before it is verified, and it is the divergence.
    malformed = reader.malformed if to_step > last else None
    if malformed is None and to_step > last:
        raise ConfigurationError(
            f"to_step {to_step} is beyond the last recorded event "
            f"(step {last}); the trace cannot verify past it"
        )
    # Idle steps change no state, so the end frame is verified by a
    # checkpoint at the last recorded event.
    frames = [frame for frame in frames if frame.get("i", last) <= to_step]

    scenario = Scenario.from_dict(scenario_dict)
    with open_driver(scenario) as driver:
        # The recorder is here for its checkpoint.
        recorder = Recorder(scenario, driver, checkpoint_path=checkpoint_path)
        verifier = TraceVerifier(frames, driver.engine, driver)
        driver.run(to_step if malformed is None else last, verifier)
        if verifier.pending:
            frame = verifier.pending[0]
            raise verifier.diverge(
                frame.get("i"), "source idled where the trace recorded an event", frame, None
            )
        if malformed is not None:
            raise verifier.diverge(malformed["step"], malformed["reason"], None, None)
        checkpoint = recorder.checkpoint()
    return TraceCheckpointResult(
        checkpoint_path=checkpoint_path,
        steps_done=checkpoint.steps_done,
        events_done=checkpoint.events_done,
        state_hash=checkpoint.captured_hash,
        verified_events=verifier.events,
        hash_checks=verifier.hash_checks,
    )
