"""The load instrument: latency from the due instant, lateness reported.

Most cases drive a stub line-echo server in a thread, so a stall, a late
listener or a dropped connection can be placed exactly; the last case runs
the ``load`` command end to end against a real ``serve`` process.
"""

from __future__ import annotations

import json
import os
import re
import select
import socket
import subprocess
import sys
import threading
import time
import types

import pytest

import repro
from repro.cli import main
from repro.service import loadgen
from repro.service.loadgen import OperationStats, drive_load
from repro.workloads.arrivals import Arrival, PoissonArrivals, save_arrival_trace

#: 200 requests, one every 5 ms: a 200 ms stall holds ~40 of them.
SPACING = 0.005
ARRIVALS = [Arrival(at=index * SPACING, op="sample") for index in range(200)]


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class EchoServer:
    """Answers every request line with ``{"id", "ok": true}``, in a thread.

    ``stall_at``: on the request with that id, sleep ``STALL`` seconds
    before reading on (once).  ``close_at``: on the request with that id,
    close its connection unanswered.  ``bind_after``: seconds to wait before
    the listener exists.  ``received`` maps each id to when it was read.
    """

    STALL = 0.2

    def __init__(self, port=None, stall_at=None, close_at=None, bind_after=0.0):
        self.port = port or free_port()
        self.stall_at, self.close_at, self.bind_after = stall_at, close_at, bind_after
        self.stall_start = self.stall_end = None
        self.received = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)

    def _serve(self):
        time.sleep(self.bind_after)
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", self.port))
        listener.listen()
        clients = {}
        try:
            while not self._stop.is_set():
                ready, _, _ = select.select([listener, *clients], [], [], 0.02)
                for sock in ready:
                    if sock is listener:
                        client, _ = listener.accept()
                        clients[client] = b""
                        continue
                    try:
                        chunk = sock.recv(1 << 16)
                    except OSError:
                        chunk = b""
                    *lines, clients[sock] = (clients[sock] + chunk).split(b"\n")
                    if not chunk or not self._answer(sock, lines):
                        del clients[sock]
                        sock.close()
        finally:
            listener.close()
            for sock in clients:
                sock.close()

    def _answer(self, sock, lines) -> bool:
        """Echo ``lines``' ids; false once the connection is to be closed."""
        for line in lines:
            request_id = json.loads(line)["id"]
            self.received[request_id] = time.perf_counter()
            if request_id == self.close_at:
                return False
            if request_id == self.stall_at and self.stall_start is None:
                self.stall_start = time.perf_counter()
                time.sleep(self.STALL)
                self.stall_end = time.perf_counter()
            sock.sendall(json.dumps({"id": request_id, "ok": True}).encode() + b"\n")
        return True


@pytest.fixture
def latencies(monkeypatch):
    """Every recorded response's latency (ms), keyed by request id."""
    seen = {}
    record = OperationStats.record

    def spy(self, response, rtt_ms):
        seen[response["id"]] = rtt_ms
        record(self, response, rtt_ms)

    monkeypatch.setattr(OperationStats, "record", spy)
    return seen


def test_a_server_stall_is_charged_to_every_request_due_inside_it(latencies):
    with EchoServer(stall_at=60) as server:
        report = drive_load("127.0.0.1", server.port, ARRIVALS, offered_rate=200.0)
    assert report.ok and report.completed == len(ARRIVALS)
    # The driver's start instant, seen from the server: no request can be
    # read before it is due, so this overestimates the start (and every due
    # instant) by the send and wire time — a bound the claim still implies.
    start = min(server.received[i] - ARRIVALS[i].at for i in server.received)
    inside = [
        index
        for index, arrival in enumerate(ARRIVALS)
        if server.stall_start <= start + arrival.at <= server.stall_end
    ]
    assert len(inside) >= 30
    for index in inside:
        owed = (server.stall_end - (start + ARRIVALS[index].at)) * 1000.0
        assert latencies[index] >= owed - 5.0, (index, latencies[index], owed)
    assert report.per_operation["sample"].latency.quantile(0.99) >= 150.0
    # The stall was the server's: the driver kept its schedule.
    assert report.late_ms_p99 < 50.0


def test_a_driver_stall_shows_as_lateness_and_in_latency(monkeypatch, latencies):
    waits = []

    def oversleeping_select(readers, writers, errors, timeout):
        waits.append(timeout)
        if len(waits) == 60:
            time.sleep(timeout + 0.2)
            timeout = 0.0
        return select.select(readers, writers, errors, timeout)

    monkeypatch.setattr(loadgen, "select", types.SimpleNamespace(select=oversleeping_select))
    with EchoServer() as server:
        report = drive_load("127.0.0.1", server.port, ARRIVALS, offered_rate=200.0)
    assert report.ok and report.completed == len(ARRIVALS)
    assert report.late_ms_p99 >= 150.0
    late = report.late.series  # exact: fewer values than the sketch's cap
    assert len(late) == len(ARRIVALS)
    delayed = [index for index, value in enumerate(late) if value >= 100.0]
    assert len(delayed) >= 15
    for index, value in enumerate(late):
        assert latencies[index] >= value, (index, latencies[index], value)


def test_the_clock_starts_after_a_slow_listener_is_reached():
    port = free_port()
    with EchoServer(port=port, bind_after=0.3):
        report = drive_load("127.0.0.1", port, ARRIVALS[:100], offered_rate=200.0)
    assert report.ok and report.completed == 100
    assert report.late_ms_p99 < 50.0


def test_a_connection_the_server_closes_counts_as_missing():
    with EchoServer(close_at=50) as server:
        started = time.perf_counter()
        report = drive_load(
            "127.0.0.1", server.port, ARRIVALS, offered_rate=200.0, connections=2
        )
        elapsed = time.perf_counter() - started
    # Connection 0 carried the even ids; from id 50 on, none is answered.
    on_closed_lane = len(range(50, len(ARRIVALS), 2))
    assert report.missing >= on_closed_lane
    assert report.succeeded >= len(ARRIVALS) // 2
    assert report.succeeded + report.missing == len(ARRIVALS)
    assert not report.ok
    # The open connection's requests were settled: no wait for the drain.
    assert elapsed < loadgen.DRAIN_SECONDS


def test_load_command_against_a_serve_process(tmp_path):
    arrivals_path = str(tmp_path / "arrivals.jsonl")
    report_path = str(tmp_path / "report.json")
    save_arrival_trace(
        arrivals_path,
        PoissonArrivals(
            rate=200.0, duration=1.0, mix={"sample": 0.8, "join": 0.1, "leave": 0.1}, seed=3
        ).schedule(),
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        + ["--initial-size", "80", "--max-size", "256"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        port = re.search(r":(\d+) \(", server.stdout.readline()).group(1)
        code = main(
            ["load", "--port", port, "--arrivals", arrivals_path, "--connections", "2"]
            + ["--save-report", report_path, "--strict", "--shutdown-after"]
        )
        _, stderr = server.communicate(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert code == 0
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    for key in ("sent", "ok", "failed", "missing", "overloaded", "achieved_rate"):
        assert key in report, key
    assert report["sent"] == report["ok"] > 0
    assert 0.0 <= report["late_ms_p99"] < float("inf")
    assert set(report["operations"]) <= {"sample", "join", "leave"}
    assert server.returncode == 0, stderr
    assert "Traceback" not in stderr, stderr
