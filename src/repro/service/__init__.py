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
* :mod:`repro.service.frontend` — :class:`ServiceFrontend`: the asyncio
  TCP server and its two-lane engine pump (``repro serve``);
* :mod:`repro.service.loadgen`  — :func:`drive_load`, the open-loop
  single-thread driver that times each request from its due instant and
  reports its own lateness (``repro load``).

See ``docs/SERVICE.md`` for the protocol, backpressure semantics and the
record/replay workflow.
"""

from .frontend import DEFAULT_MAX_BATCH, ServiceFrontend
from .loadgen import LoadReport, OperationStats, drive_load
from .protocol import (
    ERROR_CODES,
    OPERATIONS,
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
)
from .queue import DEFAULT_MAX_QUEUE, RequestQueue
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
    "LoadReport",
    "OperationStats",
    "ProtocolError",
    "RequestQueue",
    "SERVICE_READ_RNG_OFFSET",
    "SERVICE_RNG_OFFSET",
    "ServiceFrontend",
    "drive_load",
    "encode_frame",
    "error_response",
    "live_scenario",
    "ok_response",
    "parse_request",
]
