"""The asyncio TCP front-end that serves the engine to external clients.

:class:`ServiceFrontend` glues three single-purpose pieces together on one
event loop (stdlib ``asyncio`` only — no new dependencies):

* one :class:`asyncio.Protocol` object per connection, splitting its bytes
  into the newline-delimited JSON requests of :mod:`repro.service.protocol`;
* the bounded :class:`~repro.service.queue.RequestQueue` every connection
  funnels into (full queue → immediate ``overloaded`` response);
* the **engine pump**: one background task that drains the queue in
  batches of up to ``max_batch`` requests, hands each batch to
  :meth:`LiveEngineSession.serve <repro.service.session.LiveEngineSession.serve>`
  (which alone knows reads from writes and in what order they run), then
  writes each connection's answers in one call and yields to the loop so
  socket I/O interleaves with engine work instead of starving behind it.

Responses are matched to requests by the echoed ``id``, not by order: a
pipelined connection receives answers as the engine finishes them, with no
task, future or lock per request.  Per-request latency (admission to
response-ready, ``time.perf_counter``) rides on every response frame.  A
client that stops reading stops being read (``pause_writing`` pauses the
transport's reading until its buffered answers drain).

Shutdown is graceful by default: new work is refused with
``shutting_down``/``overloaded``, everything already admitted is drained
through the engine and written, and the session seals its trace with the
final state hash.  A crashed pump seals the trace through the abort path
instead (flushed, no end frame — the crashed-run shape).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from .protocol import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
    ERROR_BAD_REQUEST,
    ERROR_FAILED,
    ERROR_OVERLOADED,
    ERROR_SHUTTING_DOWN,
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
)
from .queue import RequestQueue
from .session import LiveEngineSession

#: Longest request line accepted, in bytes; a longer one is answered
#: ``bad_request`` and skipped up to its newline.
MAX_LINE = 64 * 1024


@dataclass
class _Pending:
    """One admitted request awaiting the engine."""

    frame: Dict[str, Any]
    conn: "_Connection"
    enqueued_at: float = field(default_factory=time.perf_counter)
    done: bool = False


class _Connection(asyncio.Protocol):
    """One client: splits request lines in, collects encoded responses out."""

    def __init__(self, frontend: "ServiceFrontend") -> None:
        self.frontend = frontend
        self.transport: Optional[asyncio.Transport] = None
        #: Encoded responses awaiting the next :meth:`ServiceFrontend._flush`.
        self.out: List[bytes] = []
        self._tail = b""
        self._skipping = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.frontend._connections.add(self)
        self.frontend.connections_served += 1

    def data_received(self, data: bytes) -> None:
        if self._skipping:
            # The rest of an over-long line, already answered.
            end = data.find(b"\n")
            if end < 0:
                return
            self._skipping = False
            data = data[end + 1 :]
        *lines, self._tail = (self._tail + data).split(b"\n")
        if len(self._tail) > MAX_LINE:
            lines.append(self._tail)
            self._tail, self._skipping = b"", True
        for line in lines:
            if line.strip():
                self.frontend._admit(self, line)
        self.frontend._flush()

    def eof_received(self) -> None:
        # A last line without its newline is still a request; then close.
        if self._tail.strip():
            self.frontend._admit(self, self._tail)
            self.frontend._flush()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # Requests it left admitted still run (and are recorded) as usual;
        # their answers are dropped.
        self.frontend._connections.discard(self)

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()


class ServiceFrontend:
    """Serves a :class:`LiveEngineSession` over TCP."""

    def __init__(
        self,
        session: LiveEngineSession,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.session = session
        self.host = host
        self.port = port
        self.max_batch = max_batch
        self.queue = RequestQueue(maxsize=max_queue)
        self.connections_served = 0
        self.responses_sent = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._connections: Set[_Connection] = set()
        #: Connections with responses awaiting :meth:`_flush`.
        self._unflushed: List[_Connection] = []
        self._shutdown = asyncio.Event()
        self._shutdown_reason: Optional[str] = None
        self.pump_error: Optional[BaseException] = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and start the engine pump."""
        self.session.start()
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._pump_task = asyncio.create_task(self._pump())

    def request_shutdown(self, reason: str = "requested") -> None:
        """Ask the serve loop to stop (signal handlers and `shutdown` op)."""
        if self._shutdown_reason is None:
            self._shutdown_reason = reason
        self._shutdown.set()

    @property
    def shutdown_reason(self) -> Optional[str]:
        """Why the serve loop stopped (``None`` while running)."""
        return self._shutdown_reason

    async def serve_until_shutdown(self) -> None:
        """Block until :meth:`request_shutdown`, then stop gracefully."""
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        """Graceful stop: drain admitted work, seal the trace, close."""
        if self._stopped:
            return
        self._stopped = True
        self._shutdown.set()
        # Refuse new connections first, then new requests (``shutting_down``).
        if self._server is not None:
            self._server.close()
        self.queue.close()
        if self._pump_task is not None:
            # The pump re-raises its fatal error; swallow it here (it is
            # kept in pump_error and re-raised below) so the trace still
            # gets sealed and every answer still gets written.
            await asyncio.gather(self._pump_task, return_exceptions=True)
        # Every admitted request is answered; ``close`` sends the buffer first.
        for conn in tuple(self._connections):
            conn.transport.close()
        self.session.close(ok=self.pump_error is None)
        if self.pump_error is not None:
            raise self.pump_error

    # ------------------------------------------------------------------
    # Engine pump
    # ------------------------------------------------------------------
    async def _pump(self) -> None:
        """Drain a batch → :meth:`LiveEngineSession.serve` it → write, until closed.

        ``serve`` answers each request through :meth:`_resolve` as soon as
        its outcome is ready; the iteration ends with one write per
        connection it answered.

        The only failure ``serve`` raises is its write window's — a shard
        worker dying, the trace writer raising — which leaves events applied
        but unrecorded, so it is fatal: the rest of the batch and everything
        still queued are answered ``failed`` (never a hung connection),
        shutdown is triggered, and :meth:`stop` re-raises the error after
        sealing the trace in crashed-run shape.
        """
        batch: list = []
        try:
            while True:
                await self.queue.wait()
                batch = self.queue.drain(self.max_batch)
                if not batch:
                    if self.queue.closed:
                        return
                    continue
                self.session.serve(
                    [pending.frame for pending in batch],
                    lambda index, outcome: self._resolve(batch[index], outcome),
                )
                self._flush()
                # Yield so connections are read and written between batches.
                await asyncio.sleep(0)
        except BaseException as error:
            message = f"engine pump failed: {error}"
            self.pump_error = error
            self.request_shutdown(message)
            self._fail_batch(batch, message)
            self._abort_queued(message)
            self._flush()
            raise

    def _resolve(self, pending: _Pending, outcome: Any) -> None:
        """Answer one request from its outcome (result or ``ProtocolError``);
        a ``status`` answer gains the queue's own block."""
        if pending.done:
            return
        pending.done = True
        frame = pending.frame
        if isinstance(outcome, ProtocolError):
            response = error_response(frame.get("id"), frame["op"], outcome.code, outcome.message)
        else:
            if frame["op"] == "status":
                outcome["queue"] = {
                    "depth": len(self.queue),
                    "bound": self.queue.maxsize,
                    "accepted": self.queue.accepted,
                    "rejected": self.queue.rejected,
                }
            response = ok_response(frame.get("id"), frame["op"], outcome)
        response["latency_ms"] = round(
            (time.perf_counter() - pending.enqueued_at) * 1000.0, 3
        )
        self._send(pending.conn, response)

    def _fail_batch(self, batch, message: str) -> None:
        """Answer every unresolved request of a batch with ``failed``."""
        for pending in batch:
            self._resolve(pending, ProtocolError(ERROR_FAILED, message))

    def _abort_queued(self, message: str) -> None:
        """Close the queue and fail everything still waiting in it.

        Runs synchronously inside the pump's fatal-error handler (no awaits
        between close and drain), so no request can slip in unanswered:
        later arrivals see the closed queue and get ``shutting_down``.
        """
        self.queue.close()
        self._fail_batch(self.queue.drain(len(self.queue)), message)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def _admit(self, conn: _Connection, line: bytes) -> None:
        """Validate one request line, then queue it or answer it at once."""
        try:
            if len(line) > MAX_LINE:
                raise ProtocolError(
                    ERROR_BAD_REQUEST, f"request line is longer than {MAX_LINE} bytes"
                )
            frame = parse_request(line.decode("utf-8", errors="replace"))
        except ProtocolError as error:
            self._send(conn, error_response(error.request_id, error.op, error.code, error.message))
            return
        op, request_id = frame["op"], frame.get("id")
        if op == "shutdown":
            self._send(conn, ok_response(request_id, op, {"stopping": True}))
            self.request_shutdown("client shutdown request")
        elif self.queue.closed:
            message = "server is shutting down"
            self._send(conn, error_response(request_id, op, ERROR_SHUTTING_DOWN, message))
        elif not self.queue.offer(_Pending(frame, conn)):
            # The backpressure fast path: the queue bound was hit, the
            # client hears about it now instead of waiting in line.
            message = f"request queue is full ({self.queue.maxsize})"
            self._send(conn, error_response(request_id, op, ERROR_OVERLOADED, message))

    def _send(self, conn: _Connection, response: Dict[str, Any]) -> None:
        """Encode one response onto its connection's output list."""
        if conn.transport.is_closing():
            return
        if not conn.out:
            self._unflushed.append(conn)
        conn.out.append(encode_frame(response))

    def _flush(self) -> None:
        """Write each connection's pending responses in one call."""
        unflushed, self._unflushed = self._unflushed, []
        for conn in unflushed:
            out, conn.out = conn.out, []
            if not conn.transport.is_closing():
                conn.transport.write(b"".join(out))
                self.responses_sent += len(out)
