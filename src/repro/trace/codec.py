"""Trace codecs: how frames get onto and off the disk.

The logical trace format — header / event / index / end frames as plain
dicts — is defined in :mod:`repro.trace.log`.  This module owns the two
physical encodings behind the :class:`~repro.trace.log.TraceWriter` /
:class:`~repro.trace.log.TraceReader` API:

* ``jsonl`` — one JSON object per line, human-greppable, the original
  format.  Now write-buffered: encoded lines accumulate and hit the file
  every ``flush_every`` frames instead of per frame.
* ``binary`` — struct-packed event records in zlib-deflated blocks,
  ~6-20x smaller and faster to decode.  Non-event frames (header, index,
  end) are stored as length-prefixed JSON blocks, so arbitrary scenario
  specs survive byte-exactly.

Both codecs decode to **identical frame dicts** — a binary trace and a JSONL
trace of the same run read back as the same frame sequence (property-tested),
which is what keeps ``replay``, ``trace-diff`` (including mixed-format
diffs), ``resume`` and every other frame consumer format-agnostic.

Binary container layout (all integers little-endian)::

    magic     8 bytes   b"RPROTRB1"
    block*    [type u8][payload_length u32][payload]

    type 0    codec preamble (JSON): {"enums": {"kind": [...], "role": [...]},
              "record": "<IIBBiiiIIdIIQ", "compression": "zlib"}
    type 1    one frame as UTF-8 JSON (header / index / end frames, plus any
              event frame whose values do not fit the packed record)
    type 2    event block: zlib-deflated concatenation of fixed 54-byte
              event records

Packed event record (struct format ``<IIBBiiiIIdIIQ``, 54 bytes)::

    field  type  trace key  meaning
    -----  ----  ---------  -------------------------------------------
    i      u32   "i"        step index
    ts     u32   "ts"       engine time step
    k      u8    "k"        churn kind (index into preamble enums.kind)
    r      u8    "r"        node role (index into preamble enums.role)
    n      i32   "n"        input event node id (-1 encodes null)
    c      i32   "c"        contact cluster id (-1 encodes null)
    a      i32   "a"        assigned node id (-1 encodes null)
    sz     u32   "sz"       network size after the event
    cl     u32   "cl"       cluster count after the event
    w      f64   "w"        worst corruption fraction (bit-exact)
    m      u32   "m"        operation messages
    rd     u32   "rd"       operation rounds
    h      u64   "h"        operation walk hops

Enum index tables travel in the preamble (not hard-coded), so a reader never
depends on the writer's enum declaration order.  A truncated tail — the
signature of a run killed mid-write — is dropped on read, exactly like the
truncated final line of a JSONL trace.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Any, Dict, List, Optional, Tuple

from ..core.events import ChurnKind
from ..errors import ConfigurationError
from ..network.node import NodeRole

#: First 8 bytes of every binary trace file.
BINARY_MAGIC = b"RPROTRB1"

#: Default number of frames buffered between physical writes.
DEFAULT_FLUSH_EVERY = 256

#: The codec names ``TraceWriter(trace_format=...)`` accepts.
TRACE_FORMATS = ("jsonl", "binary")

_BLOCK_PREAMBLE = 0
_BLOCK_JSON = 1
_BLOCK_EVENTS = 2

_BLOCK_HEADER = struct.Struct("<BI")
_EVENT_RECORD = struct.Struct("<IIBBiiiIIdIIQ")

_U32_MAX = 2**32 - 1
_U64_MAX = 2**64 - 1
_I32_MAX = 2**31 - 1


def _dump(frame: Dict[str, Any]) -> str:
    """Canonical JSON encoding of one frame (sorted keys, no whitespace)."""
    return json.dumps(frame, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Writers
# ----------------------------------------------------------------------
class JsonlCodecWriter:
    """Write-buffered JSONL encoder: byte-identical to the original format."""

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
        self._kinds = [kind.value for kind in ChurnKind]
        self._roles = [role.value for role in NodeRole]
        self._kind_codes = {value: index for index, value in enumerate(self._kinds)}
        self._role_codes = {value: index for index, value in enumerate(self._roles)}
        self._records: List[bytes] = []
        self._closed = False
        self._handle = open(path, "wb")
        self._handle.write(BINARY_MAGIC)
        preamble = {
            "enums": {"kind": self._kinds, "role": self._roles},
            "record": _EVENT_RECORD.format,
            "compression": "zlib",
        }
        self._write_block(_BLOCK_PREAMBLE, _dump(preamble).encode("utf-8"))

    def _write_block(self, block_type: int, payload: bytes) -> None:
        self._handle.write(_BLOCK_HEADER.pack(block_type, len(payload)))
        self._handle.write(payload)

    def _pack_event(self, frame: Dict[str, Any]) -> Optional[bytes]:
        """The 54-byte record for an event frame, or ``None`` if it won't fit."""
        try:
            node = frame.get("n")
            contact = frame.get("c")
            assigned = frame.get("a")
            if max(frame["i"], frame["ts"], frame["sz"], frame["cl"], frame["m"], frame["rd"]) > _U32_MAX:
                return None
            if frame["h"] > _U64_MAX:
                return None
            for value in (node, contact, assigned):
                if value is not None and not (0 <= value <= _I32_MAX):
                    return None
            return _EVENT_RECORD.pack(
                frame["i"],
                frame["ts"],
                self._kind_codes[frame["k"]],
                self._role_codes[frame["r"]],
                -1 if node is None else node,
                -1 if contact is None else contact,
                -1 if assigned is None else assigned,
                frame["sz"],
                frame["cl"],
                frame["w"],
                frame["m"],
                frame["rd"],
                frame["h"],
            )
        except (KeyError, TypeError, struct.error):
            return None

    def write_frame(self, frame: Dict[str, Any]) -> None:
        """Buffer an event record, or emit a JSON block for any other frame.

        Non-event frames first flush pending events so on-disk block order
        matches logical frame order.  An event frame whose values fall
        outside the packed ranges degrades to a JSON block — readers accept
        both interchangeably.
        """
        if frame.get("t") == "ev":
            record = self._pack_event(frame)
            if record is not None:
                self._records.append(record)
                if len(self._records) >= self.flush_every:
                    self._flush_events()
                return
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


def _decode_jsonl(path: str) -> List[Dict[str, Any]]:
    """Stream a JSONL trace line by line (no whole-file string copies).

    Million-event JSONL traces run to ~150 MB; iterating the handle keeps
    peak memory at the parsed frames plus one line, matching the original
    reader's profile.
    """
    frames: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                frames.append(json.loads(line))
            except json.JSONDecodeError:
                break  # truncated tail: keep every complete frame before it
    return frames


def _decode_binary(data: bytes) -> List[Dict[str, Any]]:
    frames: List[Dict[str, Any]] = []
    kinds: List[str] = []
    roles: List[str] = []
    offset = len(BINARY_MAGIC)
    total = len(data)
    while offset + _BLOCK_HEADER.size <= total:
        block_type, length = _BLOCK_HEADER.unpack_from(data, offset)
        start = offset + _BLOCK_HEADER.size
        end = start + length
        if end > total:
            break  # truncated tail: the block was cut mid-write
        payload = data[start:end]
        offset = end
        try:
            if block_type == _BLOCK_PREAMBLE:
                preamble = json.loads(payload)
                enums = preamble.get("enums", {})
                kinds = list(enums.get("kind", []))
                roles = list(enums.get("role", []))
            elif block_type == _BLOCK_JSON:
                frames.append(json.loads(payload))
            elif block_type == _BLOCK_EVENTS:
                raw = zlib.decompress(payload)
                for values in _EVENT_RECORD.iter_unpack(raw):
                    i, ts, k, r, n, c, a, sz, cl, w, m, rd, h = values
                    frames.append(
                        {
                            "t": "ev",
                            "i": i,
                            "ts": ts,
                            "k": kinds[k],
                            "r": roles[r],
                            "n": None if n < 0 else n,
                            "c": None if c < 0 else c,
                            "a": None if a < 0 else a,
                            "sz": sz,
                            "cl": cl,
                            "w": w,
                            "m": m,
                            "rd": rd,
                            "h": h,
                        }
                    )
            # Unknown block types are skipped (length is known), keeping the
            # reader forward-compatible with additive container changes.
        except (ValueError, IndexError, zlib.error, struct.error):
            break  # corrupt block: keep every frame decoded before it
    return frames


def read_trace_frames(path: str) -> Tuple[str, List[Dict[str, Any]]]:
    """Decode a trace file of either format to ``(format_name, frames)``.

    The format is sniffed from the leading bytes, so callers (and the
    ``trace-diff`` CLI) can mix JSONL and binary traces freely.  Truncated
    tails are tolerated in both formats.
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
