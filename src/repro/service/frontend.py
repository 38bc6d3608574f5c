"""The TCP front-end that serves the engine to external clients.

:class:`ServiceFrontend` is one single-threaded loop on a stdlib
:class:`selectors.DefaultSelector`.  Each :meth:`~ServiceFrontend.run_once`
accepts pending connections; reads every readable socket, splitting its
bytes into the newline-delimited JSON requests of
:mod:`repro.service.protocol` and admitting each into the bounded
:class:`~repro.service.queue.RequestQueue` (full queue → immediate
``overloaded`` response); drains one batch of up to ``max_batch`` requests
into :meth:`LiveEngineSession.serve <repro.service.session.LiveEngineSession.serve>`
(which alone knows reads from writes and in what order they run); then
writes each connection's answers with one ``send``, keeping an unsent tail
for when the socket is writable.  It does not block in ``select`` while
requests are queued, so socket I/O interleaves with engine work.

Responses are matched to requests by the echoed ``id``, not by order, with
no task, future or lock per request; per-request latency (admission to
response-ready) rides on every response frame.  A connection is not read
while its unsent answers pass :data:`HIGH_WATER` bytes, so a client that
stops reading stops being read.  A client that half-closes is read no more,
and its connection closes once every request it admitted is answered and
sent.

Shutdown is graceful: new work is refused with ``shutting_down``,
everything already admitted is drained through the engine and written, and
the session seals its trace with the final state hash.  A byte written to
:attr:`~ServiceFrontend.wakeup_fd` (``serve`` hands it to
:func:`signal.set_wakeup_fd`) wakes a blocked loop.  A failed pump batch
seals the trace through the abort path instead (flushed, no end frame — the
crashed-run shape).
"""

from __future__ import annotations

import selectors
import socket
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

#: Bytes read from one socket per loop iteration.
READ_SIZE = 256 * 1024

#: Unsent answer bytes past which a connection is not read until they drain.
HIGH_WATER = 64 * 1024

#: Seconds :meth:`ServiceFrontend.stop` waits for clients to take their
#: last answers.
LINGER_S = 2.0


@dataclass
class _Pending:
    """One admitted request awaiting the engine."""

    frame: Dict[str, Any]
    conn: "_Connection"
    enqueued_at: float = field(default_factory=time.perf_counter)
    done: bool = False


class _Connection:
    """One client socket: request lines in, encoded answers out."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.unsent = bytearray()  # encoded answers the socket has not taken
        self.waiting = 0  # admitted requests not answered yet
        self.events = 0  # the selector events it is registered for
        self.eof = False
        self.closed = False
        self._tail = b""
        self._skipping = False

    def lines(self, data: bytes) -> List[bytes]:
        """The request lines ``data`` completes; an over-long partial line
        is one of them, and its rest up to the newline is skipped."""
        if self._skipping:
            end = data.find(b"\n")
            if end < 0:
                return []
            self._skipping = False
            data = data[end + 1 :]
        *lines, self._tail = (self._tail + data).split(b"\n")
        if len(self._tail) > MAX_LINE:
            lines.append(self._tail)
            self._tail, self._skipping = b"", True
        return lines


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
        self.pump_error: Optional[BaseException] = None
        self._listener: Optional[socket.socket] = None
        self._connections: Set[_Connection] = set()
        self._selector = selectors.DefaultSelector()
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._wake_reader.setblocking(False)
        self._wake_writer.setblocking(False)
        self._selector.register(self._wake_reader, selectors.EVENT_READ)
        self._shutdown_reason: Optional[str] = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind the listening socket and fire the session's start hooks."""
        self.session.start()
        family, _, _, _, address = socket.getaddrinfo(
            self.host or None, self.port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
        )[0]
        self._listener = socket.create_server(address, family=family, backlog=100)
        self._listener.setblocking(False)
        self._selector.register(self._listener, selectors.EVENT_READ)
        self.port = self._listener.getsockname()[1]

    @property
    def wakeup_fd(self) -> int:
        """A non-blocking socket whose every byte wakes a blocked loop."""
        return self._wake_writer.fileno()

    def request_shutdown(self, reason: str = "requested") -> None:
        """Ask the serve loop to stop (signal handlers and `shutdown` op)."""
        if self._shutdown_reason is None:
            self._shutdown_reason = reason

    @property
    def shutdown_reason(self) -> Optional[str]:
        """Why the serve loop stopped (``None`` while running)."""
        return self._shutdown_reason

    def serve_until_shutdown(self) -> None:
        """Run the loop until :meth:`request_shutdown`, then stop gracefully."""
        while self._shutdown_reason is None:
            self.run_once()
        self.stop()

    def run_once(self, timeout: Optional[float] = None) -> None:
        """One loop iteration: socket events, one pump batch, one write per
        connection.  Waits up to ``timeout`` seconds for an event (``None``:
        no limit) unless requests are queued."""
        for key, events in self._selector.select(0 if self.queue else timeout):
            if key.data is not None:
                if events & selectors.EVENT_READ:
                    self._read(key.data)
            elif key.fileobj is self._listener:
                self._accept()
            else:
                self._wake_reader.recv(4096)
        if self.queue:
            self._pump()
        self._flush()

    def stop(self) -> None:
        """Graceful stop: drain admitted work, answer it, seal the trace, close."""
        if self._stopped:
            return
        self._stopped = True
        # Refuse new connections first, then new requests (``shutting_down``).
        if self._listener is not None:
            self._selector.unregister(self._listener)
            self._listener.close()
        self.queue.close()
        while self.queue:
            self.run_once(0)
        deadline = time.monotonic() + LINGER_S
        while any(conn.unsent for conn in self._connections) and time.monotonic() < deadline:
            self.run_once(deadline - time.monotonic())
        for conn in tuple(self._connections):
            self._drop(conn)
        self._selector.close()
        self._wake_reader.close()
        self._wake_writer.close()
        self.session.close(ok=self.pump_error is None)
        if self.pump_error is not None:
            raise self.pump_error

    # ------------------------------------------------------------------
    # Engine pump
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Drain one batch and :meth:`LiveEngineSession.serve` it; ``serve``
        answers each request through :meth:`_resolve` once its outcome is ready.

        The only failure ``serve`` raises is its write window's — a shard
        worker dying, the trace writer raising — which leaves events applied
        but unrecorded, so it is fatal: the rest of the batch and everything
        still queued are answered ``failed`` (never a hung connection),
        shutdown is requested, and :meth:`stop` re-raises the error after
        sealing the trace in crashed-run shape.
        """
        batch = self.queue.drain(self.max_batch)
        try:
            self.session.serve(
                [pending.frame for pending in batch],
                lambda index, outcome: self._resolve(batch[index], outcome),
            )
        except BaseException as error:
            message = f"engine pump failed: {error}"
            self.pump_error = error
            self.request_shutdown(message)
            self._fail_batch(batch, message)
            # Later arrivals see the closed queue and get ``shutting_down``.
            self.queue.close()
            self._fail_batch(self.queue.drain(len(self.queue)), message)

    def _resolve(self, pending: _Pending, outcome: Any) -> None:
        """Answer one request from its outcome (result or ``ProtocolError``);
        a ``status`` answer gains the queue's own block."""
        if pending.done:
            return
        pending.done = True
        pending.conn.waiting -= 1
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

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # none pending, or out of descriptors: retry next time
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._adopt(sock)

    def _adopt(self, sock: socket.socket) -> _Connection:
        """Serve one connected socket."""
        sock.setblocking(False)
        conn = _Connection(sock)
        self._connections.add(conn)
        self.connections_served += 1
        self._watch(conn)
        return conn

    def _read(self, conn: _Connection) -> None:
        """Admit the requests one ``recv`` completes; at EOF, a last line
        without its newline too."""
        try:
            data = conn.sock.recv(READ_SIZE)
        except BlockingIOError:
            return
        except OSError:
            self._drop(conn)
            return
        if not data:
            conn.eof, data = True, b"\n"
        self._received(conn, data)

    def _received(self, conn: _Connection, data: bytes) -> None:
        for line in conn.lines(data):
            if line.strip():
                self._admit(conn, line)

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
        elif self.queue.offer(_Pending(frame, conn)):
            conn.waiting += 1
        else:
            # The backpressure fast path: the queue bound was hit, the
            # client hears about it now instead of waiting in line.
            message = f"request queue is full ({self.queue.maxsize})"
            self._send(conn, error_response(request_id, op, ERROR_OVERLOADED, message))

    def _send(self, conn: _Connection, response: Dict[str, Any]) -> None:
        """Encode one response onto its connection's unsent bytes."""
        if not conn.closed:
            conn.unsent += encode_frame(response)
            self.responses_sent += 1

    def _flush(self) -> None:
        """Write each connection's answers with one ``send``."""
        for conn in tuple(self._connections):
            if conn.unsent:
                try:
                    del conn.unsent[: conn.sock.send(conn.unsent)]
                except BlockingIOError:
                    pass
                except OSError:
                    self._drop(conn)
                    continue
            self._watch(conn)

    def _watch(self, conn: _Connection) -> None:
        """Register the events ``conn`` waits for: reads until EOF, except
        past :data:`HIGH_WATER`; writes while answers are unsent.  After EOF
        it closes once every request it admitted is answered and sent."""
        if conn.eof and not conn.waiting and not conn.unsent:
            self._drop(conn)
            return
        events = 0 if conn.eof or len(conn.unsent) > HIGH_WATER else selectors.EVENT_READ
        if conn.unsent:
            events |= selectors.EVENT_WRITE
        if events == conn.events:
            return
        if not conn.events:
            self._selector.register(conn.sock, events, conn)
        elif not events:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _drop(self, conn: _Connection) -> None:
        """Close ``conn``.  Requests it left admitted still run (and are
        recorded) as usual; their answers are dropped."""
        if conn.events:
            self._selector.unregister(conn.sock)
        conn.events = 0
        conn.closed = True
        conn.sock.close()
        self._connections.discard(conn)
