"""Trace codecs: how frames get onto and off the disk.

The logical trace format — header / event / index / end frames as plain
dicts, laid out once in :mod:`repro.trace.log` — has two physical encodings
behind the :class:`~repro.trace.log.TraceWriter` /
:class:`~repro.trace.log.TraceReader` API:

* ``jsonl`` — one JSON object per line, human-greppable; encoded lines
  accumulate and hit the file every ``flush_every`` frames.
* ``binary`` — struct-packed event records in zlib-deflated blocks,
  ~6-20x smaller and faster to decode.  Non-event frames (header, index,
  end) are stored as length-prefixed JSON blocks, so arbitrary scenario
  specs survive byte-exactly.

Both codecs decode to **identical frame dicts** (property-tested), which
keeps ``replay``, ``trace-diff`` (mixed-format diffs included), ``resume``
and every other frame consumer format-agnostic.

Binary container layout (all integers little-endian)::

    magic     8 bytes   b"RPROTRB1"
    block*    [type u8][payload_length u32][payload]

    type 0    codec preamble (JSON): {"enums": {"kind": [...], "role": [...]},
              "record": "<IIBBiiiIIdIIQ", "compression": "zlib"}
    type 1    one frame as UTF-8 JSON (header / index / end frames, plus any
              event frame whose values the packed record cannot hold)
    type 2    event block: zlib-deflated concatenation of fixed 54-byte
              event records

The packed event record has one struct field per event frame field but
``t``, in the order and with the struct codes and null sentinels that
:data:`repro.trace.log.EVENT_FIELDS` declares: the record format, packing
and unpacking all derive from that one declaration.  An enum field (``k``,
``r``) is stored as its index into the preamble's table of that field's
values, so a reader never depends on the writer's enum declaration order.
A truncated tail — the signature of a run killed mid-write — is dropped on
read, exactly like the truncated final line of a JSONL trace.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from operator import call, itemgetter
from typing import Any, Dict, Iterator, List, Tuple

from ..errors import ConfigurationError
from .log import DEFAULT_FLUSH_EVERY, EVENT_FIELDS

#: First 8 bytes of every binary trace file.
BINARY_MAGIC = b"RPROTRB1"

#: The codec names ``TraceWriter(trace_format=...)`` accepts.
TRACE_FORMATS = ("jsonl", "binary")

_BLOCK_PREAMBLE = 0
_BLOCK_JSON = 1
_BLOCK_EVENTS = 2

_BLOCK_HEADER = struct.Struct("<BI")

_PACKED = EVENT_FIELDS[1:]
_EVENT_RECORD = struct.Struct("<" + "".join(field.code for field in _PACKED))
_EVENT_KEYS = tuple(field.key for field in _PACKED)
_event_values = itemgetter(*_EVENT_KEYS)
#: The enum fields' value tables, as the preamble carries them.
_ENUMS = {field.attr: list(field.values) for field in _PACKED if field.values}


def _as_is(value: Any) -> Any:
    return value


def _encoder(field):
    """What a frame value packs as: an enum value its index, ``None`` the sentinel.
    A value the record cannot hold exactly (an unknown enum value, the
    sentinel itself) raises, or turns into ``None``, which ``pack`` refuses."""
    if field.values:
        return {value: index for index, value in enumerate(field.values)}.__getitem__
    if field.nullable:
        return lambda value, null=field.null: null if value is None else None if value == null else value
    return _as_is


#: Per packed field, in record order, fixed at import: what its frame value packs as.
_ENCODERS = tuple(_encoder(field) for field in _PACKED)


def _decoders(enums: Dict[str, Any]) -> Tuple[Dict[Any, Any], ...]:
    """Per packed field, what a stored value reads back as (by ``dict.get``, the
    value itself by default): an enum index its preamble name, a sentinel
    ``None``.  An index the preamble does not name is left for the check."""
    return tuple(
        dict(enumerate(enums.get(field.attr, ()))) if field.values
        else {field.null: None} if field.nullable else {}
        for field in _PACKED
    )


def _dump(frame: Dict[str, Any]) -> str:
    """Canonical JSON encoding of one frame (sorted keys, no whitespace)."""
    return json.dumps(frame, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Writers
# ----------------------------------------------------------------------
class JsonlCodecWriter:
    """Write-buffered JSONL encoder."""

    format_name = "jsonl"

    def __init__(self, path: str, flush_every: int = DEFAULT_FLUSH_EVERY) -> None:
        if flush_every < 1:
            raise ConfigurationError("flush_every must be >= 1")
        self.path = path
        self.flush_every = flush_every
        self._handle = open(path, "w", encoding="utf-8")
        self._lines: List[str] = []
        self._closed = False

    def write_frame(self, frame: Dict[str, Any]) -> None:
        """Buffer one frame; the file is touched every ``flush_every`` frames."""
        self._lines.append(_dump(frame))
        if len(self._lines) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Write every buffered frame and flush the OS handle."""
        if self._lines:
            self._handle.write("\n".join(self._lines))
            self._handle.write("\n")
            self._lines = []
        self._handle.flush()

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._handle.close()
        self._closed = True


class BinaryCodecWriter:
    """Struct-packing encoder: events batched into zlib-deflated blocks."""

    format_name = "binary"

    def __init__(self, path: str, flush_every: int = DEFAULT_FLUSH_EVERY) -> None:
        if flush_every < 1:
            raise ConfigurationError("flush_every must be >= 1")
        self.path = path
        self.flush_every = flush_every
        self._records: List[bytes] = []
        self._closed = False
        self._handle = open(path, "wb")
        self._handle.write(BINARY_MAGIC)
        preamble = {"enums": _ENUMS, "record": _EVENT_RECORD.format, "compression": "zlib"}
        self._write_block(_BLOCK_PREAMBLE, _dump(preamble).encode("utf-8"))

    def _write_block(self, block_type: int, payload: bytes) -> None:
        self._handle.write(_BLOCK_HEADER.pack(block_type, len(payload)))
        self._handle.write(payload)

    def write_frame(self, frame: Dict[str, Any]) -> None:
        """Buffer an event record, or emit a JSON block for any other frame.

        An event frame whose values the packed record cannot hold goes as a
        JSON block too — readers accept both interchangeably.
        """
        if frame.get("t") == "ev":
            try:
                self._records.append(_EVENT_RECORD.pack(*map(call, _ENCODERS, _event_values(frame))))
            except (KeyError, TypeError, struct.error):
                pass
            else:
                if len(self._records) >= self.flush_every:
                    self._flush_events()
                return
        self.write_json(frame)

    def write_json(self, frame: Dict[str, Any]) -> None:
        """Emit one frame, of any kind, as a JSON block (after the pending
        events, so on-disk block order matches logical frame order)."""
        self._flush_events()
        self._write_block(_BLOCK_JSON, _dump(frame).encode("utf-8"))

    def _flush_events(self) -> None:
        if not self._records:
            return
        payload = zlib.compress(b"".join(self._records), 6)
        self._records = []
        self._write_block(_BLOCK_EVENTS, payload)

    def flush(self) -> None:
        """Emit the pending event block and flush the OS handle."""
        self._flush_events()
        self._handle.flush()

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._handle.close()
        self._closed = True


def open_codec_writer(path: str, trace_format: str, flush_every: int = DEFAULT_FLUSH_EVERY):
    """The codec writer for ``trace_format`` (``'jsonl'`` or ``'binary'``)."""
    if trace_format == "jsonl":
        return JsonlCodecWriter(path, flush_every=flush_every)
    if trace_format == "binary":
        return BinaryCodecWriter(path, flush_every=flush_every)
    raise ConfigurationError(
        f"unknown trace format {trace_format!r}; expected one of {TRACE_FORMATS}"
    )


# ----------------------------------------------------------------------
# Readers
# ----------------------------------------------------------------------
def sniff_trace_format(path: str) -> str:
    """``'binary'`` when the file starts with the binary magic, else ``'jsonl'``."""
    with open(path, "rb") as handle:
        return "binary" if handle.read(len(BINARY_MAGIC)) == BINARY_MAGIC else "jsonl"


def _decode_jsonl(path: str) -> Iterator[Any]:
    """Stream a JSONL trace line by line (no whole-file string copies: a
    million-event trace runs to ~150 MB)."""
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                frame = json.loads(line)
            except json.JSONDecodeError:
                return  # truncated tail: keep every complete frame before it
            yield frame


def _decode_binary(data: bytes) -> Iterator[Any]:
    decoders = _decoders({})
    offset = len(BINARY_MAGIC)
    while offset + _BLOCK_HEADER.size <= len(data):
        block_type, length = _BLOCK_HEADER.unpack_from(data, offset)
        start = offset + _BLOCK_HEADER.size
        offset = start + length
        if offset > len(data):
            return  # truncated tail: the block was cut mid-write
        payload = data[start:offset]
        try:
            if block_type == _BLOCK_PREAMBLE:
                enums = json.loads(payload).get("enums")
                decoders = _decoders(enums if isinstance(enums, dict) else {})
            elif block_type == _BLOCK_JSON:
                yield json.loads(payload)
            elif block_type == _BLOCK_EVENTS:
                for values in _EVENT_RECORD.iter_unpack(zlib.decompress(payload)):
                    frame = {"t": "ev"}
                    frame.update(zip(_EVENT_KEYS, map(dict.get, decoders, values, values)))
                    yield frame
            # Unknown block types are skipped (length is known), keeping the
            # reader forward-compatible with additive container changes.
        except (ValueError, AttributeError, TypeError, zlib.error, struct.error):
            return  # corrupt block: keep every frame decoded before it


def decode_frames(path: str) -> Tuple[str, Iterator[Any]]:
    """``(format_name, frames)`` of a trace file of either format, decoded lazily.

    The format is sniffed from the leading bytes, so callers can mix JSONL
    and binary traces freely.  Truncated tails are tolerated in both
    formats; the frames are checked by
    :func:`repro.trace.log.read_trace_frames`, as they load.
    """
    if not os.path.exists(path):
        raise ConfigurationError(f"trace file {path!r} does not exist")
    with open(path, "rb") as handle:
        magic = handle.read(len(BINARY_MAGIC))
        if magic == BINARY_MAGIC:
            # Binary traces are block-structured (and ~7x smaller), so the
            # remaining bytes are decoded from one in-memory buffer.
            return "binary", _decode_binary(magic + handle.read())
    return "jsonl", _decode_jsonl(path)
