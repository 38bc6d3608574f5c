"""Verify a re-executed run against its recorded trace; diff two traces.

:class:`TraceVerifier` is the one trace verifier.  It sits in a recorder's
seat (``due(pending)`` / ``window(records)``): every record of a collected
window must reproduce the next recorded event frame, field for field, and
every index or end frame a window ends on must carry the re-executed run's
state hash (for a sharded run the composite hash, which certifies the whole
state — partition, roles, overlay, RNG position — not just the observables)
and counts.  The first disagreement is kept as a ``{step, reason, recorded,
replayed}`` record and raised as :class:`TraceDivergenceError`.  Two ways of
re-executing a trace feed it: :class:`ReplayEngine` (``replay``) re-applies
the recorded events to the driver that recorded them, rebuilt from the
header's scenario through :func:`~repro.trace.session.open_driver`, taking
each step index as recorded (given events are numbered by admission: a
batch trace's idle steps are not recorded, and a sharded run's barriers
depend on the admitted event count alone);
:func:`~repro.trace.session.checkpoint_from_trace` (``replay --to-step``)
re-drives the scenario from its seed, so the generated events and their
step indices are checked too.

:func:`trace_diff` compares two trace files frame by frame — the tool for
"these two runs should have been identical; where did they part ways?".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import islice, takewhile
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ReproError
from ..scenarios.bus import StepRecord
from .log import FRAMES, TraceReader, churn_event_from_frame, event_frame_from_record


def frame_mismatch(first: Dict[str, Any], second: Dict[str, Any]) -> Optional[Tuple[str, Any, Any]]:
    """The first field two well-formed frames disagree on: its name and both values.

    ``None`` when the frames are equal.  Fields are taken in the layout's
    order for ``second``'s kind of frame, and named as the layout names them.
    """
    if first == second:
        return None
    for field in FRAMES[second["t"]]:
        if first.get(field.key) != second.get(field.key):
            return field.name, first.get(field.key), second.get(field.key)
    return None


class TraceDivergenceError(ConfigurationError):
    """A re-executed run did not match its recorded trace.

    ``divergence`` is the first disagreement as a ``{step, reason, recorded,
    replayed}`` record.  A subclass of :class:`ConfigurationError` that
    callers (the CLI) tell apart from a usage problem: a divergence exits 1,
    like ``replay``, not 2.
    """

    def __init__(self, divergence: Dict[str, Any]) -> None:
        self.divergence = divergence
        super().__init__(
            f"trace diverged from the re-executed run at step {divergence['step']}: "
            f"{divergence['reason']}"
        )


class TraceVerifier:
    """Holds a re-executed run to its recorded frames, from the recorder's seat.

    ``frames`` are the recorded event, index and end frames the run must
    reproduce, in file order; ``engine`` is what gets hashed (a driver, or
    a driver's engine).  ``driver`` is given when the run re-derives its step
    indices (a runner or shard coordinator re-driving the scenario): index
    frames are then held to its ``total_steps`` and event frames to the
    records' steps.  Without it the step index is taken as recorded.

    An index or end frame must sit where a window ended — inside one no hash
    exists, so it is a divergence there, not a check to skip quietly.
    """

    def __init__(self, frames: Sequence[Dict[str, Any]], engine, driver=None) -> None:
        self.pending = deque(frames)
        self._engine = engine
        self._driver = driver
        self._last: Dict[str, Any] = {}
        self.events = 0
        self.hash_checks = 0
        self.divergence: Optional[Dict[str, Any]] = None

    def due(self, pending: int) -> bool:
        """Will the window that adds ``pending`` events reach a recorded hash?"""
        ahead = sum(1 for _ in takewhile(lambda frame: frame["t"] == "ev", islice(self.pending, pending)))
        return ahead < len(self.pending) and self.pending[ahead]["t"] != "ev"

    def window(self, records: Sequence[StepRecord]) -> None:
        """Verify one collected window; nothing of the run may be in flight."""
        pending = self.pending
        for record in records:
            while pending and pending[0]["t"] == "x":
                self._check_hash(pending.popleft(), None)
            frame = pending.popleft() if pending and pending[0]["t"] == "ev" else None
            self._check_event(frame, record)
        state = None
        while pending and pending[0]["t"] != "ev":
            state = state or self._engine.state_hash()
            self._check_hash(pending.popleft(), state)

    def diverge(self, step, reason: str, recorded, replayed) -> TraceDivergenceError:
        """Keep the first divergence; the error that ends the run there."""
        if self.divergence is None:
            self.divergence = dict(step=step, reason=reason, recorded=recorded, replayed=replayed)
        return TraceDivergenceError(self.divergence)

    def _check_event(self, frame: Optional[Dict[str, Any]], record: StepRecord) -> None:
        replayed = event_frame_from_record(record)
        if frame is None:
            raise self.diverge(replayed["i"], "the trace records no further event", None, replayed)
        if self._driver is None:
            replayed["i"] = frame["i"]  # given events are numbered by admission
        self._compare(frame, replayed, min(frame["i"], replayed["i"]))
        self.events += 1
        self._last = replayed

    def _check_hash(self, frame: Dict[str, Any], state: Optional[str]) -> None:
        last = self._last
        replayed = {"t": frame["t"], "ev": self.events, "h": state}
        if frame["t"] != "x":
            self._compare(frame, replayed, last.get("i"), "final ")
            return
        driver = self._driver
        replayed.update(
            i=driver.total_steps if driver is not None else frame["i"],
            ts=last.get("ts"),
            sz=last.get("sz"),
        )
        prefix = "index frame inconsistent with the re-executed run: "
        self._compare(frame, replayed, frame["i"], prefix)
        self.hash_checks += 1

    def _compare(self, frame, replayed, step, prefix: str = "") -> None:
        mismatch = frame_mismatch(frame, replayed)
        if mismatch is not None:
            name, recorded, value = mismatch
            reason = f"{prefix}{name} mismatch: recorded {recorded!r}, replayed {value!r}"
            raise self.diverge(step, reason, frame, replayed)


@dataclass
class ReplayReport:
    """Outcome of one replay pass; ``events_applied`` counts verified events."""

    events_applied: int
    hash_checks: int
    ok: bool
    divergence: Optional[Dict[str, Any]] = None
    final_hash: Optional[str] = None
    recorded_final_hash: Optional[str] = None

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.ok:
            return (
                f"replay OK: {self.events_applied} events re-applied, "
                f"{self.hash_checks} state-hash checks passed"
            )
        where = self.divergence or {}
        return (
            f"replay DIVERGED at step {where.get('step')}: {where.get('reason')} "
            f"(after {self.events_applied} events, {self.hash_checks} hash checks)"
        )


class ReplayEngine:
    """Re-applies a recorded trace to a rebuilt driver and verifies it."""

    def __init__(self, trace: "TraceReader | str") -> None:
        from ..scenarios.scenario import Scenario  # local imports: avoid cycles
        from .session import open_driver

        self.reader = trace if isinstance(trace, TraceReader) else TraceReader(trace)
        scenario = self.reader.scenario
        if scenario is None:
            raise ConfigurationError(
                "trace header carries no scenario spec; replay rebuilds the "
                "driver from it and cannot run without one"
            )
        self.driver = open_driver(Scenario.from_dict(scenario))

    def run(self) -> ReplayReport:
        """Re-apply every recorded event through the :class:`TraceVerifier`.

        Each event is dispatched, collected and verified on its own, so one
        the driver refuses — at dispatch or, sharded, in a worker — is the
        divergence at its step with nothing in flight.  The first
        divergence ends the replay; a crashed-shape trace is verified up to
        its last complete frame, and a malformed frame is the divergence at
        its step once every frame before it is verified.
        """
        with self.driver as driver:
            frames = self.reader.frames[1:]
            verifier = TraceVerifier(frames, driver)
            try:
                verifier.window([])  # hash frames before the first event
                for frame in [frame for frame in frames if frame["t"] == "ev"]:
                    try:
                        records = driver.collect(driver.dispatch([churn_event_from_frame(frame)]))
                    except ReproError as refusal:
                        reason = f"the re-executed run refused the recorded event: {refusal}"
                        raise verifier.diverge(frame["i"], reason, frame, None) from None
                    verifier.window(records)
                malformed = self.reader.malformed
                if malformed is not None:
                    raise verifier.diverge(malformed["step"], malformed["reason"], None, None)
            except TraceDivergenceError:
                pass
            end = self.reader.end_frame()
            return ReplayReport(
                events_applied=verifier.events,
                hash_checks=verifier.hash_checks,
                ok=verifier.divergence is None,
                divergence=verifier.divergence,
                final_hash=driver.state_hash(),
                recorded_final_hash=end["h"] if end else None,
            )


def replay_trace(path: "TraceReader | str") -> ReplayReport:
    """Replay a recorded trace (see :class:`ReplayEngine`)."""
    return ReplayEngine(path).run()


# ----------------------------------------------------------------------
# Trace diffing
# ----------------------------------------------------------------------
@dataclass
class TraceDiff:
    """First divergence between two traces (``diverged`` False when identical)."""

    diverged: bool
    step: Optional[int] = None
    reason: str = ""
    first_frame: Optional[Dict[str, Any]] = None
    second_frame: Optional[Dict[str, Any]] = None
    compared_events: int = 0
    notes: List[str] = field(default_factory=list)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if not self.diverged:
            return f"traces agree over {self.compared_events} events"
        return f"first divergence at step {self.step}: {self.reason}"


def trace_diff(first_path: str, second_path: str) -> TraceDiff:
    """Find the first diverging event (or index frame) between two traces.

    Event frames are compared field by field in step order; index frames by
    state hash.  Header scenarios are compared too, but only as a note —
    two traces of deliberately different scenarios can still be diffed.
    The two files may use different physical encodings (one JSONL, one
    binary): both decode to the same frame dicts, so mixed-format diffs
    compare decoded frames directly.  A trace with a malformed frame is
    refused with :class:`ConfigurationError` naming its step and field.
    """
    first = TraceReader(first_path)
    second = TraceReader(second_path)
    for reader in (first, second):
        if reader.malformed is not None:
            raise ConfigurationError(
                f"{reader.path!r}, step {reader.malformed['step']}: {reader.malformed['reason']}"
            )
    notes = ["headers record different scenarios"] if first.scenario != second.scenario else []
    first_events, second_events = list(first.events()), list(second.events())
    compared = 0
    for frame_a, frame_b in zip(first_events, second_events):
        mismatch = frame_mismatch(frame_a, frame_b)
        if mismatch is not None:
            reason = "{}: {!r} != {!r}".format(*mismatch)
            return TraceDiff(True, frame_a["i"], reason, frame_a, frame_b, compared, notes)
        compared += 1
    found = partial(TraceDiff, True, compared_events=compared, notes=notes)
    if len(first_events) != len(second_events):
        extra_a = first_events[compared] if len(first_events) > compared else None
        extra_b = second_events[compared] if len(second_events) > compared else None
        reason = f"event counts differ ({len(first_events)} vs {len(second_events)}); first extra event shown"
        return found((extra_a or extra_b)["i"], reason, extra_a, extra_b)
    # Same events — confirm the index frames agree as well.
    for frame_a, frame_b in zip(first.index_frames(), second.index_frames()):
        if frame_a["h"] != frame_b["h"]:
            return found(frame_a["i"], "identical events but state hashes differ at index frame", frame_a, frame_b)
    end_a, end_b = first.end_frame(), second.end_frame()
    if end_a is not None and end_b is not None and end_a["h"] != end_b["h"]:
        return found(None, "identical events but final state hashes differ", end_a, end_b)
    return TraceDiff(False, compared_events=compared, notes=notes)
