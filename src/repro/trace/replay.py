"""Replay a recorded trace and pinpoint divergence between runs.

:class:`ReplayEngine` rebuilds the backend that recorded the trace — a
single engine, or the shard coordinator of a ``serve --shards`` session or a
``run-scenario --shards`` run — from the header's scenario (bootstrap from
the recorded seed is deterministic) and re-applies every recorded event
through the same :mod:`repro.trace.backend` seam the recording ran.  (A
sharded run's barriers depend on the admitted event count alone, so the
idle steps a batch trace does not record are not needed to re-derive them.)
Determinism is verified at two granularities:

* **per event** — the replayed step's observables (network size, cluster
  count, worst corruption fraction, assigned node id, operation cost) must
  equal the recorded ones, so the *first diverging event* is identified
  exactly;
* **per index frame** — the full :func:`~repro.trace.hashing.state_hash`
  (the composite hash for a sharded trace) must match, which certifies the
  entire state (partition, roles, overlay, RNG position), not just the
  observables.

:func:`trace_diff` compares two trace files frame by frame — the tool for
"these two runs should have been identical; where did they part ways?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import ConfigurationError
from ..scenarios.bus import StepRecord
from .backend import open_backend
from .log import TraceReader, churn_event_from_frame, event_frame_from_record

#: Event-frame observables checked during replay, frame key -> description.
_EVENT_CHECKS = {
    "ts": "time step",
    "a": "assigned node id",
    "sz": "network size",
    "cl": "cluster count",
    "w": "worst corruption fraction",
    "m": "operation messages",
    "rd": "operation rounds",
    "h": "walk hops",
}

#: Recorded events re-applied per backend window (index frames cut it short).
REPLAY_WINDOW = 64


def check_event_frame(frame: Dict[str, Any], record: StepRecord) -> Optional[Dict[str, Any]]:
    """Compare a replayed step's observables against its recorded frame.

    Returns a divergence record (step, reason, recorded, replayed) for the
    first mismatching observable, or ``None`` when the step verified.  The
    replayed view is built by the same record -> frame mapping the writer
    used, so the comparison cannot drift from the recorded encoding.
    """
    replayed = event_frame_from_record(record)
    for key, description in _EVENT_CHECKS.items():
        if key in frame and frame[key] != replayed[key]:
            return {
                "step": frame.get("i"),
                "reason": (
                    f"{description} mismatch: recorded {frame[key]!r}, "
                    f"replayed {replayed[key]!r}"
                ),
                "recorded": frame,
                "replayed": replayed,
            }
    return None


@dataclass
class ReplayReport:
    """Outcome of one replay pass."""

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
    """Re-drives a recorded trace against a rebuilt backend and verifies it."""

    def __init__(self, trace: "TraceReader | str") -> None:
        from ..scenarios.scenario import Scenario  # local import: avoids a cycle

        self.reader = trace if isinstance(trace, TraceReader) else TraceReader(trace)
        scenario = self.reader.scenario
        if scenario is None:
            raise ConfigurationError(
                "trace header carries no scenario spec; replay rebuilds the "
                "backend from it and cannot run without one"
            )
        self.backend = open_backend(Scenario.from_dict(scenario))

    # ------------------------------------------------------------------
    # The replay loop
    # ------------------------------------------------------------------
    def run(self) -> ReplayReport:
        """Re-apply every recorded event, asserting determinism as we go.

        Events are re-applied in windows of up to :data:`REPLAY_WINDOW`
        (the backend cuts them at its own barriers); a window always ends
        before an index or end frame, where the state hash is compared.
        The first divergence ends the replay.
        """
        backend = self.backend
        events_applied = 0
        hash_checks = 0
        divergence: Optional[Dict[str, Any]] = None
        pending: List[Dict[str, Any]] = []

        def diverged(mismatch: Optional[Dict[str, Any]]) -> bool:
            """Keep the first divergence; say whether there was one."""
            nonlocal divergence
            if divergence is None:
                divergence = mismatch
            return mismatch is not None

        def apply_pending() -> bool:
            nonlocal events_applied
            frames = pending[:]
            del pending[:]
            events = [churn_event_from_frame(frame) for frame in frames]
            records = backend.collect(backend.dispatch(events))
            events_applied += len(records)
            return any(
                diverged(check_event_frame(frame, record))
                for frame, record in zip(frames, records)
            )

        def hash_mismatch(frame: Dict[str, Any], where: str) -> Optional[Dict[str, Any]]:
            replayed = backend.state_hash()
            if replayed == frame["h"]:
                return None
            return {
                "step": frame.get("i"),
                "reason": f"{where} ({replayed[:12]} != {frame['h'][:12]})",
                "recorded": frame["h"],
                "replayed": replayed,
            }

        try:
            for frame in self.reader.frames:
                kind = frame.get("t")
                if kind == "ev":
                    pending.append(frame)
                    if len(pending) < REPLAY_WINDOW:
                        continue
                if apply_pending():
                    break
                if kind == "x":
                    hash_checks += 1
                    if diverged(hash_mismatch(frame, "state hash mismatch at index frame")):
                        break
                elif kind == "end":
                    diverged(hash_mismatch(frame, "final state hash mismatch"))
            else:
                apply_pending()  # a crashed-shape trace ends on event frames
            end = self.reader.end_frame()
            return ReplayReport(
                events_applied=events_applied,
                hash_checks=hash_checks,
                ok=divergence is None,
                divergence=divergence,
                final_hash=backend.state_hash(),
                recorded_final_hash=end["h"] if end else None,
            )
        finally:
            backend.close()


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


def frame_mismatch(first: Dict[str, Any], second: Dict[str, Any]) -> Optional[str]:
    """The first field two frames disagree on, as text (``None`` when equal)."""
    keys = sorted(set(first) | set(second))
    for key in keys:
        if first.get(key) != second.get(key):
            return f"field {key!r}: {first.get(key)!r} != {second.get(key)!r}"
    return None


def trace_diff(first_path: str, second_path: str) -> TraceDiff:
    """Find the first diverging event (or index frame) between two traces.

    Event frames are compared field by field in step order; index frames by
    state hash.  Header scenarios are compared too, but only as a note —
    two traces of deliberately different scenarios can still be diffed.
    The two files may use different physical encodings (one JSONL, one
    binary): both decode to the same frame dicts, so mixed-format diffs
    compare decoded frames directly.
    """
    first = TraceReader(first_path)
    second = TraceReader(second_path)
    notes: List[str] = []
    if first.scenario != second.scenario:
        notes.append("headers record different scenarios")

    first_events = list(first.events())
    second_events = list(second.events())
    compared = 0
    for frame_a, frame_b in zip(first_events, second_events):
        mismatch = frame_mismatch(frame_a, frame_b)
        if mismatch is not None:
            return TraceDiff(
                diverged=True,
                step=frame_a.get("i"),
                reason=mismatch,
                first_frame=frame_a,
                second_frame=frame_b,
                compared_events=compared,
                notes=notes,
            )
        compared += 1
    if len(first_events) != len(second_events):
        longer, shorter = (
            (first_events, second_events)
            if len(first_events) > len(second_events)
            else (second_events, first_events)
        )
        extra = longer[len(shorter)]
        return TraceDiff(
            diverged=True,
            step=extra.get("i"),
            reason=(
                f"event counts differ ({len(first_events)} vs {len(second_events)}); "
                "first extra event shown"
            ),
            first_frame=extra if longer is first_events else None,
            second_frame=extra if longer is second_events else None,
            compared_events=compared,
            notes=notes,
        )

    # Same events — confirm the index frames agree as well.
    for frame_a, frame_b in zip(first.index_frames(), second.index_frames()):
        if frame_a.get("h") != frame_b.get("h"):
            return TraceDiff(
                diverged=True,
                step=frame_a.get("i"),
                reason="identical events but state hashes differ at index frame",
                first_frame=frame_a,
                second_frame=frame_b,
                compared_events=compared,
                notes=notes,
            )
    first_end = first.end_frame()
    second_end = second.end_frame()
    if (
        first_end is not None
        and second_end is not None
        and first_end.get("h") != second_end.get("h")
    ):
        return TraceDiff(
            diverged=True,
            step=None,
            reason="identical events but final state hashes differ",
            first_frame=first_end,
            second_frame=second_end,
            compared_events=compared,
            notes=notes,
        )
    return TraceDiff(diverged=False, compared_events=compared, notes=notes)
