"""Open-loop load driver: the schedule is law, latency runs from the due instant.

The instrument behind both service workloads.  Every request has a *due*
instant fixed before the clock starts (a seeded Poisson schedule from
``repro.workloads.arrivals``); the driver sends it as soon as that instant
has passed, whether or not earlier requests were answered, and times each
response from the due instant — so a stall in the server, or in the driver
itself, is charged to every request it delayed.  How late the driver ran is
reported separately (``late_ms``), which is what makes the latencies
trustworthy: a rung whose driver lateness is high measured the driver.

One process, one thread, blocking sends and ``select`` for reads: request
frames are encoded before the clock starts, so the send path is one
``sendall`` per arrival.  (``repro.service.loadgen.run_load`` times from the
actual send and is built to share an event loop with other tasks; it is the
program's own client, not the instrument.)
"""

from __future__ import annotations

import contextlib
import gc
import json
import random
import select
import socket
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.service.protocol import encode_frame
from repro.workloads.arrivals import PoissonArrivals

from estimators import percentile, windowed_percentile

#: How long after a phase's last due instant to wait for straggler responses.
DRAIN_SECONDS = 5.0
#: How long a closed-loop burst may take before its unanswered requests count
#: as missing.
CLOSED_TIMEOUT = 30.0
#: Requests per block of exact mix proportions (see :func:`mix_sequence`).
MIX_BLOCK = 100

MISSING, OK, OVERLOADED, FAILED = 0, 1, 2, 3


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """No garbage collection inside: a collector pause in the driver would
    read as server latency, and the timed loops allocate no cycles."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclass
class Phase:
    """One stretch of offered load: ``windows`` equal windows at ``rate``."""

    name: str
    rate: float
    window_seconds: float
    windows: int

    @property
    def seconds(self) -> float:
        return self.window_seconds * self.windows


@dataclass
class Request:
    """One scheduled request (``due`` is seconds from the phase start)."""

    due: float
    frame: bytes


def build_schedule(phase: Phase, mix: Dict[str, float], seed: int, first_id: int) -> List[Request]:
    """The phase's timetable with its frames pre-encoded (same seed, same table)."""
    arrivals = PoissonArrivals(rate=phase.rate, duration=phase.seconds, mix=mix, seed=seed).schedule()
    requests = []
    for offset, arrival in enumerate(arrivals):
        frame = {"op": arrival.op, "id": first_id + offset}
        if arrival.op == "broadcast":
            frame["payload"] = "spine"
        requests.append(Request(arrival.at, encode_frame(frame)))
    return requests


@dataclass
class PhaseResult:
    """Per-request outcome of one phase, index-aligned with its schedule."""

    phase: Phase
    due: List[float]
    late_ms: List[float]
    latency_ms: List[Optional[float]]
    server_ms: List[Optional[float]]
    status: List[int]
    #: Phase start to the last response received (or the drain timeout).
    elapsed: float = 0.0
    #: Protocol costs the ``ok`` responses reported (the paper's cost units).
    messages: int = 0
    rounds: int = 0
    walk_hops: int = 0
    errors: List[str] = field(default_factory=list)

    def count(self, status: int) -> int:
        return sum(1 for value in self.status if value == status)

    def window_latencies(self) -> List[List[float]]:
        """Client latencies of answered requests, grouped by due-time window."""
        windows: List[List[float]] = [[] for _ in range(self.phase.windows)]
        width = self.phase.window_seconds
        for due, latency in zip(self.due, self.latency_ms):
            if latency is not None:
                windows[min(int(due / width), self.phase.windows - 1)].append(latency)
        return windows


def rung_summary(results: Sequence[PhaseResult]) -> Dict[str, Any]:
    """One rung's numbers over every window of ``results`` (same rate).

    Percentiles come from the quietest window (see ``estimators``); counts,
    lateness and costs are totals over all of them.
    """
    windows = [window for result in results for window in result.window_latencies()]
    latency = [value for result in results for value in result.latency_ms]
    inside = [value for result in results for value in result.server_ms]
    server = [value for value in inside if value is not None]
    wire = [a - b for a, b in zip(latency, inside) if a is not None and b is not None]
    late = [value for result in results for value in result.late_ms]
    means = [statistics.fmean(window) for window in windows if window]
    ok = sum(result.count(OK) for result in results)
    elapsed = sum(result.elapsed for result in results)
    return {
        "rate": results[0].phase.rate,
        "sent": len(latency),
        "ok": ok,
        "overloaded": sum(result.count(OVERLOADED) for result in results),
        "failed": sum(result.count(FAILED) for result in results),
        "missing": sum(result.count(MISSING) for result in results),
        "samples_per_window": min((len(window) for window in windows), default=0),
        "p50_ms": windowed_percentile(windows, 0.50) if server else 0.0,
        "p75_ms": windowed_percentile(windows, 0.75) if server else 0.0,
        "p99_ms": windowed_percentile(windows, 0.99) if server else 0.0,
        "server_p50_ms": percentile(server, 0.50) if server else 0.0,
        "server_p99_ms": percentile(server, 0.99) if server else 0.0,
        "wire_p50_ms": percentile(wire, 0.50) if wire else 0.0,
        "late_p99_ms": percentile(late, 0.99) if late else 0.0,
        "backlog_growth": means[-1] / means[0] if len(means) > 1 and means[0] > 0 else 1.0,
        "elapsed_s": elapsed,
        "messages": sum(result.messages for result in results),
        "rounds": sum(result.rounds for result in results),
        "walk_hops": sum(result.walk_hops for result in results),
        "errors": [error for result in results for error in result.errors],
    }


class OpenLoopDriver:
    """A few TCP connections to one server, driven phase by phase."""

    def __init__(self, host: str, port: int, connections: int = 2) -> None:
        self._socks = []
        for _ in range(connections):
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(None)
            self._socks.append(sock)
        self._buffers = {sock: bytearray() for sock in self._socks}
        self.next_id = 0

    def close(self) -> None:
        for sock in self._socks:
            sock.close()

    def call(self, op: str, timeout: float = 30.0) -> Dict:
        """One synchronous request on the first connection (ping, status, shutdown)."""
        sock = self._socks[0]
        request_id = self.next_id
        self.next_id += 1
        sock.sendall(encode_frame({"op": op, "id": request_id}))
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            for response in self._read(sock, deadline - time.perf_counter()):
                if response.get("id") == request_id:
                    return response
        raise TimeoutError(f"no response to {op!r} within {timeout} s")

    def _read(self, sock: socket.socket, timeout: float) -> List[Dict]:
        """Responses completed by one ``recv`` on ``sock`` (empty on timeout)."""
        ready, _, _ = select.select([sock], [], [], max(0.0, timeout))
        if not ready:
            return []
        return self._drain_socket(sock)

    def _drain_socket(self, sock: socket.socket) -> List[Dict]:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buffer = self._buffers[sock]
        buffer += chunk
        *lines, rest = bytes(buffer).split(b"\n")
        buffer[:] = rest
        return [json.loads(line) for line in lines if line]

    def run_phase(self, phase: Phase, mix: Dict[str, float], seed: int) -> PhaseResult:
        """Offer ``phase`` on schedule and collect every response."""
        first_id = self.next_id
        requests = build_schedule(phase, mix, seed, first_id)
        total = len(requests)
        self.next_id += total
        result = PhaseResult(
            phase=phase,
            due=[request.due for request in requests],
            late_ms=[0.0] * total,
            latency_ms=[None] * total,
            server_ms=[None] * total,
            status=[MISSING] * total,
        )
        socks = self._socks
        lanes = len(socks)
        perf = time.perf_counter
        with collector_paused():
            start = perf() + 0.05
            give_up = start + phase.seconds + DRAIN_SECONDS
            cursor = 0
            answered = 0
            while answered < total:
                now = perf()
                if now >= give_up:
                    break
                while cursor < total and start + requests[cursor].due <= now:
                    request = requests[cursor]
                    # Stamped before the send: on loopback ``sendall`` itself
                    # wakes the server, which can preempt this process for
                    # milliseconds before a stamp taken after it (measured:
                    # p50 1.2 -> 0.3 ms at 150 req/s on the sharded server).
                    result.late_ms[cursor] = (perf() - start - request.due) * 1000.0
                    socks[cursor % lanes].sendall(request.frame)
                    cursor += 1
                wait = (start + requests[cursor].due if cursor < total else give_up) - perf()
                ready, _, _ = select.select(socks, [], [], max(0.0, wait))
                for sock in ready:
                    responses = self._drain_socket(sock)
                    done = perf() - start
                    for response in responses:
                        index = response.get("id")
                        if not isinstance(index, int) or not first_id <= index < first_id + total:
                            continue
                        index -= first_id
                        answered += 1
                        result.latency_ms[index] = (done - result.due[index]) * 1000.0
                        result.server_ms[index] = response.get("latency_ms")
                        if response.get("ok"):
                            result.status[index] = OK
                            body = response["result"]
                            result.messages += body.get("messages", 0)
                            result.rounds += body.get("rounds", 0)
                            result.walk_hops += body.get("walk_hops", 0)
                        elif response.get("error") == "overloaded":
                            result.status[index] = OVERLOADED
                        else:
                            result.status[index] = FAILED
                            if len(result.errors) < 5:
                                result.errors.append(str(response.get("message")))
            result.elapsed = perf() - start
        return result

    def run_closed(
        self, mix: Dict[str, float], seed: int, count: int, in_flight: int
    ) -> ClosedResult:
        """Send ``count`` requests, ``in_flight`` outstanding per connection.

        The saturation instrument: every response releases the next request,
        so the server is never idle and never refuses (the in-flight total
        stays far below its queue bound) — completions per second *is* its
        capacity on this mix.  The work is fixed, not the time: a faster
        server finishes the same burst sooner, and equal bursts can be
        compared with each other (see :func:`mix_sequence`).
        """
        names = sorted(mix)
        templates = []
        for name in names:
            frame = {"op": name, "id": 0}
            if name == "broadcast":
                frame["payload"] = "spine"
            templates.append(encode_frame(frame).replace(b'"id":0', b'"id":%d'))
        draws = mix_sequence(mix, seed, count)
        first_id = self.next_id
        result = ClosedResult()
        perf = time.perf_counter
        cursor = 0
        outstanding = 0

        def send(sock: socket.socket, wanted: int) -> None:
            nonlocal cursor, outstanding
            wanted = min(wanted, count - cursor)
            if wanted <= 0:
                return
            sock.sendall(
                b"".join(
                    templates[draws[index]] % (first_id + index)
                    for index in range(cursor, cursor + wanted)
                )
            )
            cursor += wanted
            outstanding += wanted

        with collector_paused():
            start = perf()
            give_up = start + CLOSED_TIMEOUT
            for sock in self._socks:
                send(sock, in_flight)
            while outstanding:
                now = perf()
                if now >= give_up:
                    break
                ready, _, _ = select.select(self._socks, [], [], give_up - now)
                for sock in ready:
                    responses = self._drain_socket(sock)
                    outstanding -= len(responses)
                    for response in responses:
                        if response.get("ok"):
                            result.ok += 1
                        elif response.get("error") == "overloaded":
                            result.overloaded += 1
                        else:
                            result.failed += 1
                            if len(result.errors) < 5:
                                result.errors.append(str(response.get("message")))
                    send(sock, len(responses))
            result.elapsed = perf() - start
        result.sent = cursor
        result.missing = outstanding
        self.next_id = first_id + cursor
        return result


def mix_sequence(mix: Dict[str, float], seed: int, count: int) -> List[int]:
    """``count`` operations (indices into ``sorted(mix)``) in exact proportion.

    Every block of 100 holds each operation in its ``mix`` share (largest
    remainders make up the hundred) in an order shuffled from ``seed``, so
    two bursts of the same length hold the same operations.  Independent
    draws would give each burst its own number of churn events — milliseconds
    each beside microsecond reads — and the bursts could not be compared.
    """
    names = sorted(mix)
    total = sum(mix.values())
    exact = [mix[name] / total * MIX_BLOCK for name in names]
    block = [int(share) for share in exact]
    by_remainder = sorted(range(len(names)), key=lambda i: exact[i] - block[i], reverse=True)
    for index in by_remainder[: MIX_BLOCK - sum(block)]:
        block[index] += 1
    pattern = [index for index, copies in enumerate(block) for _ in range(copies)]
    rng = random.Random(seed)
    sequence: List[int] = []
    while len(sequence) < count:
        rng.shuffle(pattern)
        sequence.extend(pattern)
    return sequence[:count]


@dataclass
class ClosedResult:
    """Outcome of one closed-loop burst."""

    sent: int = 0
    ok: int = 0
    overloaded: int = 0
    failed: int = 0
    missing: int = 0
    #: Burst start to the last response (the in-flight tail included).
    elapsed: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def ok_per_s(self) -> float:
        return self.ok / self.elapsed if self.elapsed > 0 else 0.0
