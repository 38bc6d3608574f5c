"""Open-loop load driver for the live service: the schedule is law.

Drives a schedule of :class:`~repro.workloads.arrivals.Arrival` requests at
the server and reports per-operation p50/p95/p99 latency (a
:class:`~repro.analysis.statistics.QuantileSketch`), achieved vs offered
throughput, and how late the driver itself ran.

Every request has a *due* instant fixed before the clock starts and goes
out once that instant has passed, answered or not — a slowing server shows
up as growing latency and ``overloaded`` fast-fails, not as a throttled
request rate (the coordinated-omission trap of closed-loop drivers).  Each
response is timed from its due instant, so a stall in the server *or in the
driver* is charged to every request it delayed; the driver's own lateness
(send − due) is reported as ``late_ms_p99`` — a run whose lateness is high
measured the client.  One thread, blocking sends, ``select`` for reads;
connections open and frames are encoded (integer ids) before the clock
starts, and the garbage collector is paused in the timed loop.

``ok`` and ``overloaded`` are the expected outcomes under load (fast-fail
backpressure is the server working as designed); ``failed`` (rejections)
and ``missing`` (never answered) make :attr:`LoadReport.ok` false.
"""

from __future__ import annotations

import gc
import json
import select
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from ..analysis.reporting import format_table
from ..analysis.statistics import QuantileSketch
from ..workloads.arrivals import Arrival
from .protocol import ERROR_OVERLOADED, encode_frame

#: Default parallel connections the driver spreads arrivals across.
DEFAULT_CONNECTIONS = 2
#: How long after the last due instant unanswered requests still count.
DRAIN_SECONDS = 15.0
#: Connect retries (attempts × delay), so the driver can start before the server.
CONNECT_ATTEMPTS, CONNECT_DELAY = 40, 0.25
#: Overdue sends between reads: responses never back up far enough for the
#: server to stop reading, so no ``sendall`` can block for good.
SEND_BURST = 256


@dataclass
class OperationStats:
    """Counts and latency sketch for one operation under load."""

    sent: int = 0
    ok: int = 0
    overloaded: int = 0
    failed: int = 0
    missing: int = 0
    latency: QuantileSketch = field(default_factory=QuantileSketch)

    def record(self, response: Dict[str, Any], rtt_ms: float) -> None:
        """Fold one matched response into the stats."""
        self.latency.push(rtt_ms)
        if response.get("ok"):
            self.ok += 1
        elif response.get("error") == ERROR_OVERLOADED:
            self.overloaded += 1
        else:
            self.failed += 1

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view (latencies in milliseconds)."""
        return {
            "sent": self.sent,
            "ok": self.ok,
            "overloaded": self.overloaded,
            "failed": self.failed,
            "missing": self.missing,
            "p50_ms": self.latency.quantile(0.50),
            "p95_ms": self.latency.quantile(0.95),
            "p99_ms": self.latency.quantile(0.99),
        }


@dataclass
class LoadReport:
    """Outcome of one load run."""

    offered_rate: float
    duration: float
    per_operation: Dict[str, OperationStats]
    #: The driver's own lateness per request sent (send − due, milliseconds).
    late: QuantileSketch = field(default_factory=QuantileSketch)

    @property
    def sent(self) -> int:
        return sum(stats.sent for stats in self.per_operation.values())

    @property
    def completed(self) -> int:
        """Responses received (any outcome)."""
        return self.succeeded + self.overloaded + self.failed

    @property
    def succeeded(self) -> int:
        return sum(stats.ok for stats in self.per_operation.values())

    @property
    def overloaded(self) -> int:
        return sum(stats.overloaded for stats in self.per_operation.values())

    @property
    def failed(self) -> int:
        return sum(stats.failed for stats in self.per_operation.values())

    @property
    def missing(self) -> int:
        return sum(stats.missing for stats in self.per_operation.values())

    @property
    def achieved_rate(self) -> float:
        """Successful responses per second of wall-clock run time."""
        return self.succeeded / self.duration if self.duration > 0 else 0.0

    @property
    def late_ms_p99(self) -> float:
        """99th percentile of the driver's lateness (0 when nothing was sent)."""
        return self.late.quantile(0.99) if self.late.count else 0.0

    @property
    def ok(self) -> bool:
        """No hard failures and no unanswered requests."""
        return self.failed == 0 and self.missing == 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready view of the whole report."""
        return {
            "offered_rate": self.offered_rate,
            "achieved_rate": self.achieved_rate,
            "duration_seconds": self.duration,
            "sent": self.sent,
            "ok": self.succeeded,
            "overloaded": self.overloaded,
            "failed": self.failed,
            "missing": self.missing,
            "late_ms_p99": self.late_ms_p99,
            "operations": {
                name: stats.as_dict() for name, stats in sorted(self.per_operation.items())
            },
        }

    def summary_table(self) -> str:
        """Per-operation latency/outcome table (the CLI's output)."""
        rows = [
            [name, stats.sent, stats.ok, stats.overloaded, stats.failed + stats.missing]
            + [f"{stats.latency.quantile(q):.2f}" for q in (0.50, 0.95, 0.99)]
            for name, stats in sorted(self.per_operation.items())
        ]
        return format_table(
            ["operation", "sent", "ok", "overloaded", "errors", "p50 ms", "p95 ms", "p99 ms"],
            rows,
        )


def _connect(host: str, port: int) -> socket.socket:
    """One blocking connection, retried so the driver can start before the server."""
    last_error = None
    for _ in range(CONNECT_ATTEMPTS):
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError as error:
            last_error = error
            time.sleep(CONNECT_DELAY)
            continue
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        return sock
    raise ConnectionError(
        f"could not connect to {host}:{port} after {CONNECT_ATTEMPTS} attempts: {last_error}"
    )


def drive_load(
    host: str,
    port: int,
    arrivals: Sequence[Arrival],
    offered_rate: float,
    connections: int = DEFAULT_CONNECTIONS,
    shutdown_after: bool = False,
) -> LoadReport:
    """Drive the schedule at the server and collect the report.

    Arrival *i* goes out on connection ``i % connections`` once its due
    instant has passed.  A connection the server closes stops being read;
    its unanswered requests, and the ones it would still have carried,
    count as missing.  Blocking: an in-process caller runs it in a thread
    and steps the server's loop (``ServiceFrontend.run_once``) meanwhile.
    """
    if connections < 1:
        raise ValueError("connections must be >= 1")
    total = len(arrivals)
    due = [arrival.at for arrival in arrivals]
    ops = [arrival.op for arrival in arrivals]
    frames = []
    per_operation: Dict[str, OperationStats] = {}
    for index, op in enumerate(ops):
        frame: Dict[str, Any] = {"op": op, "id": index}
        if op == "broadcast":
            frame["payload"] = f"load-{index}"
        frames.append(encode_frame(frame))
        per_operation.setdefault(op, OperationStats()).sent += 1
    late = QuantileSketch()
    answered = [False] * total
    socks: List[socket.socket] = []
    perf = time.perf_counter
    collecting = gc.isenabled()
    try:
        for _ in range(connections):
            socks.append(_connect(host, port))
        live = list(socks)
        outstanding = [0] * connections
        buffers = [b""] * connections
        gc.disable()
        start = perf()
        give_up = start + max(due, default=0.0) + DRAIN_SECONDS
        cursor = 0
        while cursor < total or any(outstanding):
            now = perf()
            if now >= give_up:
                break
            burst = cursor + SEND_BURST
            while cursor < total and cursor < burst and start + due[cursor] <= now:
                lane = cursor % connections
                sock = socks[lane]
                if sock in live:
                    # Stamped before the send: on loopback ``sendall`` can
                    # wake the server, which may preempt this thread.
                    late.push((perf() - start - due[cursor]) * 1000.0)
                    try:
                        sock.sendall(frames[cursor])
                        outstanding[lane] += 1
                    except OSError:
                        live.remove(sock)
                        outstanding[lane] = 0
                cursor += 1
            wait = (start + due[cursor] if cursor < total else give_up) - perf()
            ready, _, _ = select.select(live, [], [], max(0.0, wait))
            for sock in ready:
                lane = socks.index(sock)
                try:
                    chunk = sock.recv(1 << 16)
                except OSError:
                    chunk = b""
                if not chunk:  # closed: its unanswered requests stay missing
                    live.remove(sock)
                    outstanding[lane] = 0
                    continue
                done = perf() - start
                *lines, buffers[lane] = (buffers[lane] + chunk).split(b"\n")
                for line in lines:
                    try:
                        response = json.loads(line)
                    except ValueError:
                        continue
                    index = response.get("id")
                    if not isinstance(index, int) or not 0 <= index < total or answered[index]:
                        continue
                    answered[index] = True
                    outstanding[lane] -= 1
                    per_operation[ops[index]].record(response, (done - due[index]) * 1000.0)
        duration = perf() - start
    finally:
        if collecting:
            gc.enable()
        for sock in socks:
            sock.close()
    for index in range(total):
        if not answered[index]:
            per_operation[ops[index]].missing += 1

    if shutdown_after:
        with _connect(host, port) as sock:
            sock.sendall(encode_frame({"op": "shutdown", "id": "loadgen-shutdown"}))
            sock.settimeout(DRAIN_SECONDS)
            sock.makefile("rb").readline()

    return LoadReport(offered_rate, duration, per_operation, late)
