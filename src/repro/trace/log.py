"""The on-disk trace format: an append-only event log with index frames.

A trace is a sequence of self-describing **frames** (dicts with a ``"t"``
field), stored in one of two physical encodings — line-delimited JSON or the
struct-packed binary container of :mod:`repro.trace.codec`.  Readers sniff
the encoding from the leading bytes, so every frame consumer (``replay``,
``trace-diff``, ``resume``) is format-agnostic and the two encodings can be
mixed freely.  The frames, whose keys :data:`HEADER_FIELDS`,
:data:`EVENT_FIELDS`, :data:`INDEX_FIELDS` and :data:`END_FIELDS` declare:

* ``header`` (first) identifies the format and carries the full scenario
  spec, so ``replay`` can rebuild the engine from the seed alone.  Version 4
  is the member order of slots (see "Member order" in
  ``docs/ARCHITECTURE.md``) with simulated walks on the uniformized hop
  engine, an exchange pass drawing its walks as one batch; a trace of any
  other version is refused by version.
* ``ev`` (one per applied churn event) is the *input* event exactly as it
  was handed to ``apply_event`` (``n`` stays null for fresh joins; ``a`` is
  the id the engine assigned) plus the step's observables, which make every
  event a determinism check in replay and let ``trace-diff`` pinpoint the
  first diverging event.
* ``x`` (every ``index_every`` events) carries a full
  :func:`~repro.trace.hashing.state_hash`: replay asserts agreement there.
* ``end`` (last, written by :meth:`TraceWriter.close`) carries the final
  state hash.

Writes are buffered: frames hit the disk every ``flush_every`` frames, at
every index frame (the durability anchor) and on close.  Floats round-trip
exactly in both encodings.  A trace whose process died mid-write is still
readable: readers drop a truncated final line / block, and replay verifies
up to the last complete frame.
"""

from __future__ import annotations

import operator
from itertools import islice
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..core.events import ChurnEvent, ChurnKind
from ..errors import ConfigurationError
from ..network.node import NodeRole
from ..scenarios.bus import StepRecord

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 4

#: Default spacing (in applied events) between state-hash index frames.
DEFAULT_INDEX_EVERY = 200

#: Default number of frames buffered between physical writes.
DEFAULT_FLUSH_EVERY = 256

#: What a field is given for a key its document lacks.
ABSENT = object()

_TYPE_NAMES = {int: "an int", float: "a number", str: "a string", dict: "an object", list: "a list", bool: "a bool"}


class Field(NamedTuple):
    """One field of a frame (or of a checkpoint's envelope) and what it may hold.

    ``types`` match exactly (a ``bool`` is not an ``int``); ``low`` and
    ``high`` bound a number inclusively (NaN is in no range); ``values``,
    when given, are the only values accepted.  An event field also names
    the :class:`~repro.scenarios.bus.StepRecord` attribute it records and
    its binary struct ``code``, whose ``null`` sentinel stands for ``None``.
    """

    key: str
    name: str
    types: Tuple[type, ...]
    low: Optional[float] = None
    high: Optional[float] = None
    values: Tuple[Any, ...] = ()
    nullable: bool = False
    optional: bool = False
    attr: Optional[str] = None
    code: Optional[str] = None
    null: Optional[int] = None

    def fault(self, value: Any) -> Optional[str]:
        """Why ``value`` (:data:`ABSENT` for a missing key) is refused, or ``None``."""
        if (
            type(value) in self.types
            and (not self.values or value in self.values)
            and (self.low is None or self.low <= value)
            and (self.high is None or value <= self.high)
        ) or (value is None and self.nullable):
            return None
        if value is ABSENT:
            return None if self.optional else "is missing"
        if self.values:
            expected = "one of " + ", ".join(map(repr, self.values))
        else:
            expected = _TYPE_NAMES[self.types[0]]
            expected += f" in [{self.low}, {self.high}]" if self.high is not None else ""
            expected += f" >= {self.low}" if self.high is None and self.low is not None else ""
        return f"is {value!r} (expected {expected}{' or null' if self.nullable else ''})"


def field_fault(document: Dict[str, Any], fields: Tuple[Field, ...]) -> Optional[Tuple[Field, str]]:
    """The first of ``fields`` that ``document`` holds badly, and why; ``None`` if none."""
    for field in fields:
        problem = field.fault(document.get(field.key, ABSENT))
        if problem is not None:
            return field, problem
    return None


#: The largest value each struct code holds (an i32's negatives are for its null).
_HIGH = {"I": 2**32 - 1, "i": 2**31 - 1, "Q": 2**64 - 1}


def _count(key: str, name: str, attr=None, code=None, **nulls) -> Field:
    """A count or an id: a non-negative int, no larger than its struct code holds."""
    return Field(key, name, (int,), 0, _HIGH.get(code), attr=attr, code=code, **nulls)


def _node(key: str, name: str, attr: str) -> Field:
    """A node or cluster id an event may leave unset: an i32, -1 for null."""
    return _count(key, name, attr, "i", nullable=True, null=-1)


def _kind(kind: str) -> Field:
    return Field("t", "frame kind", (str,), values=(kind,))


#: The frame layout, declared once: the keys each kind of frame carries, in
#: this order.  The writer builds event frames from it, the binary codec packs
#: and unpacks event records by it, the reader checks every frame against it
#: and divergence reasons name fields by it.
HEADER_FIELDS = (
    _kind("header"),
    Field("f", "format", (str,), values=(FORMAT_NAME,)),
    Field("v", "format version", (int,), values=(FORMAT_VERSION,)),
    Field("scenario", "scenario", (dict,), nullable=True),
    Field("engine", "engine kind", (str,), values=("now", "sharded")),
    Field("index_every", "index cadence", (int,), low=1),
)
EVENT_FIELDS = (
    _kind("ev"),
    _count("i", "step", "step_index", "I"),
    _count("ts", "time step", "time_step", "I"),
    Field("k", "event kind", (str,), values=tuple(kind.value for kind in ChurnKind), attr="kind", code="B"),
    Field("r", "role", (str,), values=tuple(role.value for role in NodeRole), attr="role", code="B"),
    _node("n", "event node", "node_id"),
    _node("c", "contact cluster", "contact_cluster"),
    _node("a", "assigned node id", "assigned_node"),
    _count("sz", "network size", "network_size", "I"),
    _count("cl", "cluster count", "cluster_count", "I"),
    Field("w", "worst corruption fraction", (float, int), 0, 1, attr="worst_fraction", code="d"),
    _count("m", "operation messages", "messages", "I"),
    _count("rd", "operation rounds", "rounds", "I"),
    _count("h", "walk hops", "walk_hops", "Q"),
)
INDEX_FIELDS = (
    _kind("x"),
    _count("i", "step"),
    _count("ts", "time step"),
    _count("ev", "event count"),
    Field("h", "state hash", (str,)),
    _count("sz", "network size"),
)
END_FIELDS = (_kind("end"), _count("ev", "event count"), Field("h", "state hash", (str,)))

#: The kinds of frame after the header: ``"t"`` -> fields, and what a refusal calls it.
FRAMES = {"ev": EVENT_FIELDS, "x": INDEX_FIELDS, "end": END_FIELDS}
_WORDS = {"ev": "event", "x": "index", "end": "end"}
_ANY_KIND = Field("t", "frame kind", (str,), values=tuple(FRAMES))

_EVENT_KEYS = tuple(field.key for field in EVENT_FIELDS[1:])
_event_values = operator.attrgetter(*(field.attr for field in EVENT_FIELDS[1:]))


def _layout_check(fields: Tuple[Field, ...]) -> Callable[[Dict[str, Any]], bool]:
    """One frame kind's check, built once: whether a frame holds exactly
    ``fields``, each as :meth:`Field.fault` accepts it."""
    checks = [
        (field.key, field.types, field.values, field.low, field.high, field.nullable)
        for field in fields
    ]

    def check(frame: Dict[str, Any]) -> bool:
        for key, types, values, low, high, nullable in checks:
            value = frame.get(key, ABSENT)
            if type(value) not in types:
                if value is not None or not nullable:
                    return False
            elif (values and value not in values) or (low is not None and not low <= value) or (
                high is not None and not value <= high
            ):
                return False
        return len(frame) == len(checks)

    return check


_CHECKS = {kind: _layout_check(fields) for kind, fields in FRAMES.items()}


def _layout_fault(frame: Dict[str, Any], fields: Tuple[Field, ...], word: str) -> Optional[Tuple[str, str]]:
    fault = field_fault(frame, fields)
    if fault is None and len(frame) == len(fields):
        return None
    if fault is None:
        key = next(key for key in frame if all(key != field.key for field in fields))
        return key, f"malformed {word} frame: unknown field {key!r}"
    field, problem = fault
    return field.key, f"malformed {word} frame: {field.name} ({field.key!r}) {problem}"


def frame_fault(frame: Any) -> Optional[Tuple[str, str]]:
    """``(key, reason)`` for the first field by which ``frame`` breaks the layout.

    ``None`` for a well-formed frame after the header: a dict of one kind of
    frame carrying exactly its keys, each holding what its field allows.
    """
    kind = frame.get("t", ABSENT) if isinstance(frame, dict) else frame
    if not isinstance(kind, str) or kind not in FRAMES:
        return "t", f"malformed frame: frame kind ('t') {_ANY_KIND.fault(kind)}"
    return None if _CHECKS[kind](frame) else _layout_fault(frame, FRAMES[kind], _WORDS[kind])


def event_frame_from_record(record: StepRecord) -> Dict[str, Any]:
    """The event frame for one step's observation record.

    The writer and replay's observable checks both build event frames here,
    from :data:`EVENT_FIELDS`, so the recorded frame and the replayed
    comparison cannot drift apart.
    """
    frame = {"t": "ev"}
    frame.update(zip(_EVENT_KEYS, _event_values(record)))
    return frame


class TraceWriter:
    """Streams frames of one run to an append-only trace file.

    ``trace_format`` selects the physical encoding (``'jsonl'`` or
    ``'binary'``); ``flush_every`` the number of frames buffered between
    physical writes.
    """

    def __init__(
        self,
        path: str,
        index_every: int = DEFAULT_INDEX_EVERY,
        trace_format: str = "jsonl",
        flush_every: int = DEFAULT_FLUSH_EVERY,
    ) -> None:
        from .codec import open_codec_writer  # the codec packs by the layout above

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

    def write_header(self, scenario: Dict[str, Any], engine_kind: str = "now") -> None:
        """Write the header frame (must be first, once) with the run's spec."""
        if self._header_written:
            raise ConfigurationError("trace header was already written")
        self._write(
            {"t": "header", "f": FORMAT_NAME, "v": FORMAT_VERSION, "scenario": scenario,
             "engine": engine_kind, "index_every": self.index_every}
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
        driver) and must have no window in flight; ``record`` is the last
        event written, whose time step and network size are the state's.
        """
        self.write_index_frame(step_index, record.time_step, engine.state_hash(), record.network_size)

    def write_index_frame(
        self, step_index: int, time_step: int, state_hash: str, network_size: int
    ) -> None:
        """Write an index frame from explicit values, and flush: index frames
        are durability anchors, so a crashed run's trace is complete at least
        up to its last one."""
        self._write(
            {"t": "x", "i": step_index, "ts": time_step, "ev": self.events_written,
             "h": state_hash, "sz": network_size}
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


def read_trace_frames(path: str) -> Tuple[str, List[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Decode a trace file of either format, checking every frame as it loads.

    Returns ``(format_name, frames, malformed)``.  The first frame after the
    header that breaks the layout (:func:`frame_fault`) ends ``frames``, as a
    truncated tail does, and is kept as ``malformed``: ``{step, field,
    reason}``, the step being the frame's own ``i`` when that is valid and
    otherwise the last event's step + 1.  The header is left to the reader.
    """
    from .codec import decode_frames  # the codec unpacks by the layout above

    trace_format, decoded = decode_frames(path)
    frames: List[Dict[str, Any]] = list(islice(decoded, 1))  # the header
    malformed = None
    step = 0
    for frame in decoded:
        fault = frame_fault(frame)
        if fault is not None:
            own = frame.get("i", ABSENT) if isinstance(frame, dict) else ABSENT
            step = own if EVENT_FIELDS[1].fault(own) is None else step + 1
            malformed = {"step": step, "field": fault[0], "reason": fault[1]}
            break
        if frame["t"] == "ev":
            step = frame["i"]
        frames.append(frame)
    return trace_format, frames, malformed


class TraceReader:
    """Reads a trace file back as frames, whatever its physical encoding.

    The encoding (JSONL or binary) is sniffed from the leading bytes and
    exposed as :attr:`trace_format`.  The whole file is parsed eagerly, each
    frame checked against the layout as it loads: a truncated tail — the
    signature of a run killed mid-write — is dropped, and so is everything
    from the first malformed frame on, which is kept as :attr:`malformed`
    (see :func:`read_trace_frames`).  A malformed header is refused.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.trace_format, self.frames, self.malformed = read_trace_frames(path)
        if not self.frames:
            raise ConfigurationError(f"trace file {path!r} contains no frames")
        header = self.frames[0]
        if not isinstance(header, dict) or header.get("t") != "header" or header.get("f") != FORMAT_NAME:
            raise ConfigurationError(f"{path!r} is not a {FORMAT_NAME} file")
        if header.get("v") != FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported trace version {header.get('v')!r} (expected {FORMAT_VERSION})"
            )
        fault = _layout_fault(header, HEADER_FIELDS, "header")
        if fault is not None:
            raise ConfigurationError(f"{path!r}: {fault[1]}")
        self.header = header

    @property
    def scenario(self) -> Optional[Dict[str, Any]]:
        """The scenario spec recorded in the header (``None`` when absent)."""
        return self.header["scenario"]

    def events(self) -> Iterator[Dict[str, Any]]:
        """Iterate over event frames in order."""
        return (frame for frame in self.frames if frame["t"] == "ev")

    def index_frames(self) -> List[Dict[str, Any]]:
        """The state-hash index frames in order."""
        return [frame for frame in self.frames if frame["t"] == "x"]

    def end_frame(self) -> Optional[Dict[str, Any]]:
        """The end frame (``None`` when the trace was cut short)."""
        last = self.frames[-1]
        return last if last["t"] == "end" else None

    def event_count(self) -> int:
        """Number of complete event frames."""
        return sum(1 for frame in self.frames if frame["t"] == "ev")


def churn_event_from_frame(frame: Dict[str, Any]) -> ChurnEvent:
    """Reconstruct the :class:`ChurnEvent` a well-formed event frame recorded.

    The frame carries the *input* event (pre-resolution), so re-applying it
    to an engine in the same state consumes the same RNG draws and assigns
    the same node ids as the original run.
    """
    return ChurnEvent(ChurnKind(frame["k"]), NodeRole(frame["r"]), frame["n"], frame["c"])
