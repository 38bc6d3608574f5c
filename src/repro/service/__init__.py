"""Live service mode: serve the NOW protocol, don't just simulate it.

Everything below :mod:`repro.service` turns the batch engine into a
network service under measured load:

* :mod:`repro.service.protocol` — the newline-delimited JSON wire format
  (operations, error codes, strict pre-engine validation);
* :mod:`repro.service.queue`    — the bounded request queue with fast-fail
  ``overloaded`` admission (the backpressure contract);
* :mod:`repro.service.session`  — :class:`LiveEngineSession`: lifecycle,
  trace attach, pre-flight admission, the write window and the reads, with
  private write/read RNG streams so recorded sessions replay bit-identically
  through ``repro replay``; the engine side is the driver every run opens
  (:func:`repro.trace.session.open_driver`) — the single-engine runner
  applying windows inline, or the shard coordinator pipelining them to
  worker processes (``serve --shards W``) — the same driver ``replay``
  rebuilds;
* :mod:`repro.service.frontend` — :class:`ServiceFrontend`: the TCP
  server, one stdlib ``selectors`` loop that reads, pumps one batch per
  iteration through the session, and writes (``repro serve``);
* :mod:`repro.service.loadgen`  — :func:`drive_load`, the open-loop
  single-thread driver that times each request from its due instant and
  reports its own lateness (``repro load``).

See ``docs/SERVICE.md`` for the protocol, backpressure semantics and the
record/replay workflow.

This package's namespace holds only the protocol and the session; the
front-end, the queue and the load driver are imported by their own paths,
so a process that does not serve — a batch run, ``replay`` — does not
import them.  No module here imports asyncio, so no process loads it or,
through it, ssl.
"""

from .protocol import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
    ERROR_CODES,
    OPERATIONS,
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
)
from .session import (
    SERVICE_READ_RNG_OFFSET,
    SERVICE_RNG_OFFSET,
    LiveEngineSession,
    live_scenario,
)

__all__ = [
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_QUEUE",
    "ERROR_CODES",
    "OPERATIONS",
    "LiveEngineSession",
    "ProtocolError",
    "SERVICE_READ_RNG_OFFSET",
    "SERVICE_RNG_OFFSET",
    "encode_frame",
    "error_response",
    "live_scenario",
    "ok_response",
    "parse_request",
]
