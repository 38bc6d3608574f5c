"""The on-disk trace format: an append-only event log with index frames.

A trace is a sequence of self-describing **frames** (dicts with a ``"t"``
field), stored in one of two physical encodings — line-delimited JSON or the
struct-packed binary container of :mod:`repro.trace.codec`.  Readers sniff
the encoding from the leading bytes, so every frame consumer (``replay``,
``trace-diff``, ``resume``) is format-agnostic and the two encodings can be
mixed freely.

``header`` (first frame)
    ``{"t":"header","f":"repro-trace","v":4,"scenario":{...},
    "engine":"now","index_every":N}`` — identifies the format and carries
    the full scenario spec so ``replay`` can rebuild the engine from the
    seed alone.  Version 4 is the member order of slots (see "Member
    order" in ``docs/ARCHITECTURE.md``) with simulated walks on the
    uniformized hop engine, an exchange pass drawing its walks as one
    batch; a trace of any other version is refused by version.

``ev`` (one per applied churn event)
    ``{"t":"ev","i":step,"ts":time_step,"k":"join"|"leave","r":role,
    "n":event_node|null,"c":contact|null,"a":assigned_node|null,
    "sz":network_size,"cl":cluster_count,"w":worst_fraction,
    "m":messages,"rd":rounds,"h":walk_hops}`` — the *input* event exactly as it was
    handed to ``apply_event`` (``n`` stays ``null`` for fresh joins; ``a``
    records the id the engine assigned) plus per-step observables.  The
    observables make every event a lightweight determinism check during
    replay and let ``trace-diff`` pinpoint the first diverging event.

``x`` (every ``index_every`` events)
    ``{"t":"x","i":step,"ts":time_step,"ev":events_so_far,"h":state_hash,
    "sz":size}`` — a full :func:`~repro.trace.hashing.state_hash` frame.
    Replay asserts hash agreement here; these are the "checkpoint frames"
    of the determinism contract.

``end`` (last frame, written by :meth:`TraceWriter.close`)
    ``{"t":"end","ev":total_events,"h":final_state_hash}``.

Writes are buffered: frames accumulate and hit the disk every
``flush_every`` frames, at every index frame (the durability anchor — after
a crash the trace is complete up to the last index frame at worst minus the
buffered tail), and on close.  In JSONL, numbers use Python's shortest-repr
float encoding, which round-trips exactly; the binary codec stores the same
floats bit-exactly — "bit-identical probe outputs" is meant literally either
way.  A trace whose process died mid-write is still readable: readers drop a
truncated final line / block and replay verifies up to the last complete
frame.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from ..core.events import ChurnEvent, ChurnKind
from ..errors import ConfigurationError
from ..network.node import NodeRole
from ..scenarios.bus import StepRecord
from .codec import DEFAULT_FLUSH_EVERY, open_codec_writer, read_trace_frames

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 4

#: Default spacing (in applied events) between state-hash index frames.
DEFAULT_INDEX_EVERY = 200


def event_frame_from_record(record: StepRecord) -> Dict[str, Any]:
    """The event frame for one step's observation record.

    The single source of truth for how per-step observables map onto trace
    frame keys — the writer and replay's observable checks both derive from
    the same :func:`~repro.scenarios.bus.step_record` extraction, so the
    recorded frame and the replayed comparison cannot drift apart.
    """
    return {
        "t": "ev",
        "i": record.step_index,
        "ts": record.time_step,
        "k": record.kind,
        "r": record.role,
        "n": record.node_id,
        "c": record.contact_cluster,
        "a": record.assigned_node,
        "sz": record.network_size,
        "cl": record.cluster_count,
        "w": record.worst_fraction,
        "m": record.messages,
        "rd": record.rounds,
        "h": record.walk_hops,
    }


class TraceWriter:
    """Streams frames of one run to an append-only trace file.

    ``trace_format`` selects the physical encoding (``'jsonl'`` or
    ``'binary'``); ``flush_every`` the number of frames buffered between
    physical writes (1 restores the legacy flush-per-frame behaviour).
    """

    def __init__(
        self,
        path: str,
        index_every: int = DEFAULT_INDEX_EVERY,
        trace_format: str = "jsonl",
        flush_every: int = DEFAULT_FLUSH_EVERY,
    ) -> None:
        if index_every < 1:
            raise ConfigurationError("index_every must be >= 1")
        self.path = path
        self.index_every = index_every
        self.trace_format = trace_format
        self.flush_every = flush_every
        self.events_written = 0
        self._last_indexed = 0
        self._codec = open_codec_writer(path, trace_format, flush_every=flush_every)
        self._header_written = False
        self._closed = False

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def write_header(self, scenario: Dict[str, Any], engine_kind: str = "now") -> None:
        """Write the header frame (must be first, once) with the run's spec."""
        if self._header_written:
            raise ConfigurationError("trace header was already written")
        self._write(
            {
                "t": "header",
                "f": FORMAT_NAME,
                "v": FORMAT_VERSION,
                "scenario": scenario,
                "engine": engine_kind,
                "index_every": self.index_every,
            }
        )
        self._header_written = True
        self._codec.flush()

    def write_record(self, record: StepRecord) -> None:
        """Write one event frame from an observation record."""
        self._write(event_frame_from_record(record))
        self.events_written += 1

    def index_due(self, pending: int = 0) -> bool:
        """Whether ``pending`` more events make an index frame due.

        The one index-cadence test (see :class:`repro.trace.session.Recorder`
        for the law): ``index_every`` events since the last index frame.
        """
        return self.events_written + pending - self._last_indexed >= self.index_every

    def write_index(self, step_index: int, record: StepRecord, engine) -> None:
        """Hash ``engine`` and write the index frame behind ``record``'s event frame.

        The one method that hashes for an index frame, whatever ran the
        events: ``engine`` is anything with ``state_hash()`` (an engine, a
        driver) and must have no window in flight; ``record`` is
        the last event written, whose time step and network size are the
        state's.
        """
        self.write_index_frame(
            step_index=step_index,
            time_step=record.time_step,
            state_hash=engine.state_hash(),
            network_size=record.network_size,
        )

    def write_index_frame(
        self, step_index: int, time_step: int, state_hash: str, network_size: int
    ) -> None:
        """Write an index frame from explicit values (engine-free form).

        Index frames are durability anchors: the write buffer is flushed to
        disk here, so a crashed run's trace is complete at least up to its
        last index frame.
        """
        self._write(
            {
                "t": "x",
                "i": step_index,
                "ts": time_step,
                "ev": self.events_written,
                "h": state_hash,
                "sz": network_size,
            }
        )
        self._last_indexed = self.events_written
        self._codec.flush()

    def close(self, final_hash: Optional[str] = None) -> None:
        """Write the end frame (when a final state hash is given) and close.

        Idempotent.  Without a hash the buffered frames are flushed and no
        end frame is written: the crashed-run shape readers tolerate.
        """
        if self._closed:
            return
        if final_hash is not None:
            self._write({"t": "end", "ev": self.events_written, "h": final_hash})
        self._codec.close()
        self._closed = True

    def _write(self, frame: Dict[str, Any]) -> None:
        if self._closed:
            raise ConfigurationError("trace writer is closed")
        self._codec.write_frame(frame)


class TraceReader:
    """Reads a trace file back as frames, whatever its physical encoding.

    The encoding (JSONL or binary) is sniffed from the leading bytes and
    exposed as :attr:`trace_format`.  The whole file is parsed eagerly and a
    truncated tail — the signature of a run killed mid-write — is tolerated
    and dropped.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.trace_format, self.frames = read_trace_frames(path)
        if not self.frames:
            raise ConfigurationError(f"trace file {path!r} contains no frames")
        header = self.frames[0]
        if (
            not isinstance(header, dict)
            or header.get("t") != "header"
            or header.get("f") != FORMAT_NAME
        ):
            raise ConfigurationError(f"{path!r} is not a {FORMAT_NAME} file")
        if header.get("v") != FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported trace version {header.get('v')!r} (expected {FORMAT_VERSION})"
            )
        self.header = header

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def scenario(self) -> Optional[Dict[str, Any]]:
        """The scenario spec recorded in the header (``None`` when absent)."""
        return self.header.get("scenario")

    def events(self) -> Iterator[Dict[str, Any]]:
        """Iterate over event frames in order."""
        return (frame for frame in self.frames if frame.get("t") == "ev")

    def index_frames(self) -> List[Dict[str, Any]]:
        """The state-hash index frames in order."""
        return [frame for frame in self.frames if frame.get("t") == "x"]

    def end_frame(self) -> Optional[Dict[str, Any]]:
        """The end frame (``None`` when the trace was cut short)."""
        last = self.frames[-1]
        return last if last.get("t") == "end" else None

    def event_count(self) -> int:
        """Number of complete event frames."""
        return sum(1 for frame in self.frames if frame.get("t") == "ev")


def churn_event_from_frame(frame: Dict[str, Any]) -> ChurnEvent:
    """Reconstruct the :class:`ChurnEvent` an event frame recorded.

    The frame carries the *input* event (pre-resolution), so re-applying it
    to an engine in the same state consumes the same RNG draws and assigns
    the same node ids as the original run.  A kind or role that names no
    member of its enum is refused with :class:`ConfigurationError`.
    """
    try:
        kind, role = ChurnKind(frame["k"]), NodeRole(frame["r"])
    except ValueError as error:
        raise ConfigurationError(f"malformed event frame: {error}") from None
    return ChurnEvent(
        kind=kind, role=role, node_id=frame.get("n"), contact_cluster=frame.get("c")
    )
