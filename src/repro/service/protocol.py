"""Wire protocol of the live service: newline-delimited JSON frames.

One request per line, one response per line, UTF-8, ``\\n``-terminated —
greppable with the same tools as the JSONL traces and speakable from netcat.
Requests are JSON objects::

    {"op": "sample", "id": 7}
    {"op": "join", "id": "c0-3", "role": "byzantine", "contact_cluster": 2}
    {"op": "leave", "id": 8, "node_id": 113}
    {"op": "broadcast", "id": 9, "payload": "hello"}
    {"op": "status", "id": 10}

``op`` selects the operation; ``id`` is an opaque client token echoed back
verbatim so clients may pipeline (responses are matched by ``id``, not by
order — the server answers as the engine gets to each request).  Responses
always carry ``ok``::

    {"id": 7, "ok": true, "op": "sample", "result": {...}, "latency_ms": 1.9}
    {"id": 7, "ok": false, "op": "sample", "error": "overloaded",
     "message": "...", "latency_ms": 0.0}

Error codes are a closed set (:data:`ERROR_CODES`): ``bad_request`` (frame
didn't parse or validate — the connection survives), ``unknown_op``,
``overloaded`` (the bounded request queue was full; the fast-fail
backpressure signal), ``failed`` (a valid request the engine rejected, e.g.
leaving a node that is not active) and ``shutting_down``.

Validation is strict and happens *before* a request reaches the engine:
``apply_event`` advances protocol time before executing the operation, so a
request that failed halfway through would desynchronise the recorded trace
from the engine state.  Everything that can be rejected is rejected here or
in the session's pre-flight checks; by the time an event touches the engine
it cannot fail.
"""

from __future__ import annotations

import json
import math
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Dict, Optional

#: Operations a client may request.
OPERATIONS = frozenset(
    {"join", "leave", "sample", "broadcast", "status", "ping", "shutdown"}
)

#: The closed set of response error codes.
ERROR_BAD_REQUEST = "bad_request"
ERROR_UNKNOWN_OP = "unknown_op"
ERROR_OVERLOADED = "overloaded"
ERROR_FAILED = "failed"
ERROR_SHUTTING_DOWN = "shutting_down"
ERROR_CODES = frozenset(
    {
        ERROR_BAD_REQUEST,
        ERROR_UNKNOWN_OP,
        ERROR_OVERLOADED,
        ERROR_FAILED,
        ERROR_SHUTTING_DOWN,
    }
)

#: Default bound on queued requests awaiting the engine; a request past it
#: is answered ``overloaded``.
DEFAULT_MAX_QUEUE = 1024

#: Default number of queued requests the pump executes per engine batch.
DEFAULT_MAX_BATCH = 64

#: Accepted values of a join request's ``role`` field.
JOIN_ROLES = frozenset({"honest", "byzantine"})

#: Request fields each operation accepts: ``op`` and ``id``, plus its own.
_OP_FIELDS: Dict[str, frozenset] = {
    op: frozenset({"op", "id", *extra})
    for op, extra in {
        "join": ("role", "node_id", "contact_cluster"),
        "leave": ("node_id",),
        "sample": (),
        "broadcast": ("payload",),
        "status": (),
        "ping": (),
        "shutdown": (),
    }.items()
}


class ProtocolError(Exception):
    """A request that must be answered with an error, not executed.

    ``code`` is one of :data:`ERROR_CODES`; ``request_id`` and ``op`` carry
    whatever could be salvaged from the offending frame so the error
    response still matches the client's pipeline slot.
    """

    def __init__(
        self,
        code: str,
        message: str,
        request_id: Any = None,
        op: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.request_id = request_id
        self.op = op


def parse_request(line: str) -> Dict[str, Any]:
    """Parse and validate one request line into its frame dict.

    Raises :class:`ProtocolError` (``bad_request`` or ``unknown_op``) on
    anything malformed; the caller answers with the error and keeps the
    connection open — one bad frame must not kill a pipelined client.
    """
    try:
        frame = json.loads(line)
    except ValueError as error:
        raise ProtocolError(ERROR_BAD_REQUEST, f"request is not valid JSON: {error}")
    if not isinstance(frame, dict):
        raise ProtocolError(ERROR_BAD_REQUEST, "request must be a JSON object")
    request_id = frame.get("id")
    if request_id is not None and not isinstance(request_id, (str, int, float, bool)):
        raise ProtocolError(ERROR_BAD_REQUEST, "request id must be a JSON scalar")
    if isinstance(request_id, float) and not math.isfinite(request_id):
        # Echoed as NaN or Infinity, it would not be JSON.
        raise ProtocolError(ERROR_BAD_REQUEST, "request id must be a finite number")
    op = frame.get("op")
    if not isinstance(op, str):
        raise ProtocolError(
            ERROR_BAD_REQUEST, "request needs a string 'op' field", request_id=request_id
        )
    if op not in OPERATIONS:
        raise ProtocolError(
            ERROR_UNKNOWN_OP,
            f"unknown operation {op!r}; expected one of {sorted(OPERATIONS)}",
            request_id=request_id,
            op=op,
        )
    if not frame.keys() <= _OP_FIELDS[op]:
        raise ProtocolError(
            ERROR_BAD_REQUEST,
            f"unknown fields for {op!r}: {sorted(frame.keys() - _OP_FIELDS[op])}",
            request_id=request_id,
            op=op,
        )
    _validate_fields(frame, op, request_id)
    return frame


def _validate_fields(frame: Dict[str, Any], op: str, request_id: Any) -> None:
    """Per-operation field validation (types only; liveness checks are the
    session's pre-flight job — they need engine state)."""
    if op == "join":
        role = frame.get("role", "honest")
        if role not in JOIN_ROLES:
            raise ProtocolError(
                ERROR_BAD_REQUEST,
                f"join role must be one of {sorted(JOIN_ROLES)}, not {role!r}",
                request_id=request_id,
                op=op,
            )
        for field in ("node_id", "contact_cluster"):
            value = frame.get(field)
            if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
                raise ProtocolError(
                    ERROR_BAD_REQUEST,
                    f"join {field} must be an integer",
                    request_id=request_id,
                    op=op,
                )
    elif op == "leave":
        value = frame.get("node_id")
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            raise ProtocolError(
                ERROR_BAD_REQUEST,
                "leave node_id must be an integer",
                request_id=request_id,
                op=op,
            )


def ok_response(
    request_id: Any, op: str, result: Dict[str, Any], latency_ms: float = 0.0
) -> Dict[str, Any]:
    """A success response frame."""
    return {
        "id": request_id,
        "ok": True,
        "op": op,
        "result": result,
        "latency_ms": latency_ms,
    }


def error_response(
    request_id: Any,
    op: Optional[str],
    code: str,
    message: str,
    latency_ms: float = 0.0,
) -> Dict[str, Any]:
    """An error response frame (``code`` must be in :data:`ERROR_CODES`)."""
    assert code in ERROR_CODES, code
    return {
        "id": request_id,
        "ok": False,
        "op": op,
        "error": code,
        "message": message,
        "latency_ms": latency_ms,
    }


#: The one wire encoder: compact separators, ASCII escapes, no circularity
#: check (a frame is a tree, so the C encoder gets no markers).
#: ``JSONEncoder.encode`` would build a new C encoder on every call; this
#: one is built once, from the same settings.
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
_encode = (
    c_make_encoder(
        None, _ENCODER.default, encode_basestring_ascii, _ENCODER.indent,
        _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
        _ENCODER.skipkeys, _ENCODER.allow_nan,
    )
    if c_make_encoder is not None
    else lambda frame, _level: (_ENCODER.encode(frame),)
)


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """Serialise one frame to its wire form (UTF-8 JSON + newline)."""
    return ("".join(_encode(frame, 0)) + "\n").encode("utf-8")
