"""ServiceFrontend over real sockets: backpressure, errors, shutdown.

The loop is stepped by the test thread: a :class:`LoopClient` runs
``run_once`` while it waits for its answers.
"""

from __future__ import annotations

import json
import os
import re
import select
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.service import LiveEngineSession, ProtocolError, encode_frame, live_scenario
from repro.service.frontend import HIGH_WATER, MAX_LINE, ServiceFrontend
from repro.trace import TraceReader, replay_trace

from service_helpers import SIZES, LoopClient, normalise
from service_helpers import make_session as make_backend_session


def make_session(seed: int = 9) -> LiveEngineSession:
    return LiveEngineSession(live_scenario(seed=seed, initial_size=80, max_size=256))


def started(session=None, **options) -> ServiceFrontend:
    frontend = ServiceFrontend(session or make_session(), port=0, **options)
    frontend.start()
    return frontend


def stub_connection(frontend):
    """A connection the test feeds through ``_received`` (any packet cut),
    answering into the client end of a socket pair."""
    server_end, client_end = socket.socketpair()
    return frontend._adopt(server_end), LoopClient(frontend, client_end)


def read_to_eof(client):
    """Every answer the client end gets until the server closes it."""
    client.sock.settimeout(10)
    data = client.buffer
    while chunk := client.sock.recv(1 << 16):
        data += chunk
    client.close()
    return [json.loads(line) for line in data.splitlines()]


class TestRequestResponse:
    def test_ping_and_sample_round_trip(self):
        frontend = started()
        try:
            client = LoopClient(frontend)
            pong = client.rpc({"op": "ping", "id": 1})
            assert pong["ok"] and pong["result"] == {"pong": True}
            assert pong["id"] == 1
            assert pong["latency_ms"] >= 0
            sampled = client.rpc({"op": "sample", "id": "s"})
            assert sampled["ok"]
            assert "node_id" in sampled["result"]
            client.close()
        finally:
            frontend.stop()

    def test_responses_matched_by_id_when_pipelined(self):
        frontend = started()
        try:
            client = LoopClient(frontend)
            client.send(*({"op": "sample", "id": index} for index in range(20)))
            seen = set()
            for response in client.answers(20):
                assert response["ok"]
                seen.add(response["id"])
            assert seen == set(range(20))
            client.close()
        finally:
            frontend.stop()

    def test_malformed_request_answers_error_and_connection_survives(self):
        frontend = started()
        try:
            client = LoopClient(frontend)
            client.sock.sendall(b"this is not json\n")
            (bad,) = client.answers(1)
            assert bad["ok"] is False
            assert bad["error"] == "bad_request"
            unknown = client.rpc({"op": "teleport", "id": 2})
            assert unknown["error"] == "unknown_op"
            assert unknown["id"] == 2
            # The same connection still serves valid requests.
            pong = client.rpc({"op": "ping", "id": 3})
            assert pong["ok"]
            client.close()
        finally:
            frontend.stop()

    def test_non_finite_id_is_bad_request_answered_as_json(self):
        frontend = started()
        try:
            client = LoopClient(frontend)
            client.sock.sendall(b'{"op": "ping", "id": NaN}\n{"op": "ping", "id": 1e999}\n')
            for line in client.answers(2):
                assert line["ok"] is False and line["error"] == "bad_request"
                assert line["id"] is None and "finite" in line["message"]
            assert client.rpc({"op": "ping", "id": 3})["ok"]
            client.close()
        finally:
            frontend.stop()

    def test_engine_rejection_is_failed_not_fatal(self):
        frontend = started()
        try:
            client = LoopClient(frontend)
            response = client.rpc({"op": "leave", "id": 1, "node_id": 10**9})
            assert response["ok"] is False
            assert response["error"] == "failed"
            pong = client.rpc({"op": "ping", "id": 2})
            assert pong["ok"]
            client.close()
        finally:
            frontend.stop()

    def test_status_includes_queue_stats(self):
        frontend = started(max_queue=7)
        try:
            client = LoopClient(frontend)
            client.rpc({"op": "ping", "id": 0})
            status = client.rpc({"op": "status", "id": 1})
            queue = status["result"]["queue"]
            assert queue["bound"] == 7
            assert queue["accepted"] >= 2
            assert queue["rejected"] == 0
            assert queue["depth"] >= 0
            client.close()
        finally:
            frontend.stop()


class TestBackpressure:
    def test_full_queue_fast_fails_with_overloaded(self):
        frontend = started(max_queue=1)
        try:
            # Pin the queue at "full" so admission (not pump speed)
            # decides the outcome: the overloaded fast-path must answer
            # without the request ever reaching the engine.
            frontend.queue.offer = lambda item: False
            client = LoopClient(frontend)
            events_before = frontend.session.events_applied
            response = client.rpc({"op": "join", "id": 1})
            assert response["ok"] is False
            assert response["error"] == "overloaded"
            assert "full" in response["message"]
            assert frontend.session.events_applied == events_before
            client.close()
        finally:
            frontend.stop()

    def test_real_overload_rejects_beyond_bound(self):
        frontend = started(max_queue=2)
        try:
            # Park the pump so requests pile up against the real bound.
            frontend._pump = lambda: None
            client = LoopClient(frontend)
            client.send(*({"op": "ping", "id": index} for index in range(5)))
            # Only the overloaded rejections answer immediately.
            rejected = client.answers(3)
            assert all(r["error"] == "overloaded" for r in rejected)
            assert {r["id"] for r in rejected} == {2, 3, 4}
            assert frontend.queue.rejected == 3
            client.close()
            # Un-park the pump so stop() can drain the two admitted
            # requests (their connection is gone; responses are dropped).
            del frontend._pump
        finally:
            frontend.stop()
        assert frontend.session.operations.get("ping", 0) == 2

    def test_a_client_that_stops_reading_stops_being_read(self):
        """Past the high-water mark of unsent answers a connection is not
        read; once its client reads them, it is read again, and every
        admitted request is answered."""
        frontend = started()
        try:
            conn, client = stub_connection(frontend)
            conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            count = 0
            while len(conn.unsent) <= HIGH_WATER:
                assert count < 1000, "answers never backed up"
                frontend._received(conn, encode_frame({"op": "status", "id": count}))
                count += 1
                frontend.run_once(0)
            assert frontend._selector.get_key(conn.sock).events == selectors.EVENT_WRITE
            responses = client.answers(count)
            assert sorted(r["id"] for r in responses) == list(range(count))
            assert all(r["ok"] for r in responses)
            assert conn.events == selectors.EVENT_READ and not conn.unsent
            client.close()
        finally:
            frontend.stop()


class TestLineFraming:
    def test_over_long_line_answers_bad_request_and_connection_survives(self):
        frontend = started()
        try:
            client = LoopClient(frontend)
            huge = {"op": "broadcast", "id": 1, "payload": "x" * 70_000}
            client.send(huge, {"op": "ping", "id": 2})
            bad, pong = client.answers(2)
            assert bad["ok"] is False and bad["error"] == "bad_request"
            assert bad["id"] is None
            assert str(MAX_LINE) in bad["message"]
            assert pong["id"] == 2 and pong["result"] == {"pong": True}
            client.close()
        finally:
            frontend.stop()

    def test_line_split_across_many_chunks(self):
        frontend = started()
        try:
            conn, client = stub_connection(frontend)
            data = encode_frame({"op": "ping", "id": 1})
            # An over-long line that only overflows once its pieces add up,
            # then a request in the chunk that ends it.
            data += b"[" + b" " * MAX_LINE + b"]\n" + encode_frame({"op": "ping", "id": 2})
            for start in range(0, len(data), 1000):
                frontend._received(conn, data[start : start + 1000])
            by_id = {r["id"]: r for r in client.answers(3)}
            assert sorted(by_id, key=str) == [1, 2, None]
            assert by_id[None]["error"] == "bad_request"
            assert by_id[1]["result"] == by_id[2]["result"] == {"pong": True}
            # Byte by byte: still one request.
            for byte in encode_frame({"op": "ping", "id": 3}):
                frontend._received(conn, bytes([byte]))
            assert client.answers(1)[0]["id"] == 3
            client.close()
        finally:
            frontend.stop()

    def test_blank_lines_between_requests_are_ignored(self):
        frontend = started()
        try:
            conn, client = stub_connection(frontend)
            frontend._received(
                conn,
                encode_frame({"op": "ping", "id": 1})
                + b"\n  \r\n"
                + encode_frame({"op": "ping", "id": 2}),
            )
            responses = client.answers(2)
            assert [r["id"] for r in responses] == [1, 2]
            assert all(r["ok"] for r in responses)
        finally:
            frontend.stop()
        assert read_to_eof(client) == []

    def test_last_line_without_newline_is_answered_at_eof(self):
        """A half-closing client's admitted requests, the unterminated last
        one included, are all answered before its connection closes."""
        frontend = started()
        try:
            client = LoopClient(frontend)
            client.sock.sendall(encode_frame({"op": "join", "id": 1}) + b'{"op": "sample", "id": 2}')
            client.sock.shutdown(socket.SHUT_WR)
            for _ in range(500):
                if frontend.connections_served and not frontend._connections:
                    break
                frontend.run_once(0.01)
            responses = read_to_eof(client)
            assert sorted(r["id"] for r in responses) == [1, 2]
            assert all(r["ok"] for r in responses)
            client = LoopClient(frontend)
            client.sock.sendall(b'{"op": "shutdown", "id": 1}')
            frontend.run_once(0.01)
            assert not select.select([client.sock], [], [], 0.05)[0]
            assert frontend.shutdown_reason is None
            client.sock.shutdown(socket.SHUT_WR)
            assert client.answers(1)[0]["result"] == {"stopping": True}
            assert frontend.shutdown_reason == "client shutdown request"
            client.close()
        finally:
            frontend.stop()


class TestFailureInsideTheEngine:
    """A write that fails past admission is applied-but-unrecorded: fatal.
    A read that fails changed nothing: answered ``failed``, service goes on."""

    @pytest.mark.parametrize("backend", ["single", "shards=1"])
    def test_trace_write_failure_stops_server_and_trace_replays(self, tmp_path, backend):
        path = str(tmp_path / "failing.jsonl")
        session = make_backend_session(backend, seed=6)
        writer = session.attach_trace(path)
        write_record, calls = writer.write_record, []

        def failing_write(record):
            calls.append(record)
            if len(calls) == 4:
                raise OSError(28, "No space left on device")
            write_record(record)

        writer.write_record = failing_write
        frontend = started(session)
        client = LoopClient(frontend)
        for index in range(3):
            assert client.rpc({"op": "join", "id": index})["ok"]
        doomed = client.rpc({"op": "join", "id": "k"})
        assert doomed["ok"] is False and doomed["error"] == "failed"
        late = client.rpc({"op": "join", "id": "late"})
        assert late["ok"] is False and late["error"] == "shutting_down"
        client.close()
        with pytest.raises(OSError, match="No space left"):
            frontend.serve_until_shutdown()
        assert "engine pump failed" in frontend.shutdown_reason
        assert session.closed
        # Sealed crashed-shape: the three recorded events, no end frame, and
        # the file replays clean to its last frame.
        trace = TraceReader(path)
        assert trace.event_count() == 3 and trace.end_frame() is None
        report = replay_trace(path)
        assert report.ok and report.events_applied == 3

    def test_failing_read_answers_failed_and_service_continues(self):
        frontend = started()
        try:
            def broken_sample(rng):
                raise RuntimeError("walk fell off the overlay")

            frontend.session.read_model.sample = broken_sample
            client = LoopClient(frontend)
            response = client.rpc({"op": "sample", "id": 1})
            assert response["ok"] is False and response["error"] == "failed"
            assert "internal error" in response["message"]
            assert client.rpc({"op": "join", "id": 2})["ok"]
            assert frontend.pump_error is None
            client.close()
        finally:
            frontend.stop()


def mixed_stream():
    """Requests of every kind; named ids sit around the first fresh ones."""
    fresh = SIZES["initial_size"]
    named = st.integers(fresh - 5, fresh + 5)
    frame = st.one_of(
        st.just({"op": "join"}),
        st.just({"op": "join", "role": "byzantine"}),
        named.map(lambda node: {"op": "join", "node_id": node}),
        st.just({"op": "leave"}),
        named.map(lambda node: {"op": "leave", "node_id": node}),
        st.sampled_from([{"op": op} for op in ("sample", "broadcast", "status", "ping")]),
    )
    return st.lists(frame, min_size=1, max_size=30).map(
        lambda frames: [dict(frame, id=index) for index, frame in enumerate(frames)]
    )


def serve_packets(frontend, packets, yields):
    """Feed ``packets`` to one stub connection, running one loop iteration
    after each packet ``yields`` marks, then stop the frontend.

    Returns the answers and the error ``stop`` re-raised (or ``None``).
    """
    frontend.session.start()
    conn, client = stub_connection(frontend)
    for packet, pause in zip(packets, yields):
        frontend._received(conn, packet)
        if pause:
            frontend.run_once(0)
    try:
        frontend.stop()
    except Exception as error:
        return read_to_eof(client), error
    return read_to_eof(client), None


class TestStubTransport:
    """The frontend in process: a stub connection fed by the test, no server."""

    @pytest.mark.parametrize("backend", ["single", "shards=1"])
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(frames=mixed_stream(), data=st.data())
    def test_any_packet_cuts_answer_as_one_request_at_a_time(
        self, tmp_path_factory, backend, frames, data
    ):
        """Cut a mixed stream's bytes anywhere: every id is answered once,
        and the writes answer, record and hash as one-at-a-time ``execute``."""
        stream = b"".join(map(encode_frame, frames))
        cuts = data.draw(st.sets(st.integers(1, len(stream) - 1), max_size=12), label="cuts")
        bounds = [0, *sorted(cuts), len(stream)]
        packets = [stream[start:end] for start, end in zip(bounds, bounds[1:])]
        yields = data.draw(st.lists(st.booleans(), min_size=len(packets), max_size=len(packets)))
        tmp = tmp_path_factory.mktemp("stub")

        served = make_backend_session(backend, seed=13)
        served.attach_trace(str(tmp / "served.jsonl"), index_every=10**6)
        responses, error = serve_packets(ServiceFrontend(served, max_batch=5), packets, yields)
        assert error is None
        assert sorted(response["id"] for response in responses) == list(range(len(frames)))

        oracle = make_backend_session(backend, seed=13)
        oracle.attach_trace(str(tmp / "oracle.jsonl"), index_every=10**6)
        expected = {}
        try:
            for frame in frames:
                try:
                    expected[frame["id"]] = normalise(oracle.execute(frame))
                except ProtocolError as refusal:
                    expected[frame["id"]] = normalise(refusal)
        finally:
            oracle.close()
        for response in responses:
            if response["op"] in ("join", "leave"):
                if response["ok"]:
                    got = response["result"]
                else:
                    got = ("error", response["error"], response["message"])
                assert got == expected[response["id"]], response
        # The end frames carry the final state hashes.
        assert TraceReader(str(tmp / "served.jsonl")).end_frame() is not None
        assert (tmp / "served.jsonl").read_bytes() == (tmp / "oracle.jsonl").read_bytes()

    def test_a_failing_window_answers_every_request_once(self):
        """``collect`` raises: reads answered beside the window keep their
        ``ok``; the rest of the batch and the whole queue answer ``failed``."""
        session = make_session()
        session.execute({"op": "sample"})  # fresh views: reads ride beside the window

        def dead_collect(token):
            raise RuntimeError("worker died")

        session.driver.collect = dead_collect
        ops = ["sample", "join", "status", "leave", "ping", "broadcast", "join", "sample"]
        frames = [{"op": op, "id": index} for index, op in enumerate(ops)]
        frontend = ServiceFrontend(session, max_batch=5)
        responses, error = serve_packets(frontend, [b"".join(map(encode_frame, frames))], [True])
        assert isinstance(error, RuntimeError) and "engine pump failed" in frontend.shutdown_reason
        assert sorted(response["id"] for response in responses) == list(range(len(frames)))
        for response in responses:
            if response["id"] in (0, 2, 4):  # the first batch's reads
                assert response["ok"], response
            else:
                assert response["error"] == "failed", response
                assert response["message"] == "engine pump failed: worker died", response
        assert session.closed


class TestShutdown:
    def test_shutdown_op_stops_serve_loop(self):
        frontend = started()
        client = LoopClient(frontend)
        client.send({"op": "shutdown", "id": 1})
        frontend.serve_until_shutdown()
        (response,) = read_to_eof(client)
        assert response["ok"] and response["result"] == {"stopping": True}
        assert frontend.shutdown_reason == "client shutdown request"
        assert frontend.session.closed

    def test_a_byte_on_the_wakeup_socket_wakes_a_blocked_loop(self):
        frontend = started()
        try:
            waker = threading.Timer(0.1, os.write, (frontend.wakeup_fd, b"\0"))
            waker.start()
            frontend.run_once()  # blocks until the byte arrives
            waker.join(timeout=10)
            assert not waker.is_alive()
        finally:
            frontend.stop()

    def test_stop_drains_admitted_requests(self):
        frontend = started()
        conn, client = stub_connection(frontend)
        frontend._received(
            conn, b"".join(encode_frame({"op": "join", "id": index}) for index in range(5))
        )
        assert len(frontend.queue) == 5
        # Stop immediately: everything already admitted must still be
        # executed and answered before the session seals its trace.
        frontend.stop()
        responses = read_to_eof(client)
        assert sorted(r["id"] for r in responses) == list(range(5))
        assert all(r["ok"] for r in responses)
        assert conn.closed
        assert frontend.session.events_applied == 5

    def test_requests_after_close_answer_shutting_down(self):
        frontend = started()
        try:
            client = LoopClient(frontend)
            client.rpc({"op": "ping", "id": 1})
            frontend.queue.close()
            response = client.rpc({"op": "ping", "id": 2})
            assert response["error"] == "shutting_down"
            client.close()
        finally:
            frontend.stop()

    def test_stop_is_idempotent(self):
        frontend = started()
        frontend.stop()
        frontend.stop()
        assert frontend.session.closed


class TestConstruction:
    def test_max_batch_must_be_positive(self):
        session = make_session()
        try:
            with pytest.raises(ValueError):
                ServiceFrontend(session, max_batch=0)
        finally:
            session.close()


class TestLoadGenerator:
    def test_operation_stats_classification(self):
        from repro.service.loadgen import OperationStats

        stats = OperationStats()
        stats.record({"ok": True}, 1.0)
        stats.record({"ok": False, "error": "overloaded"}, 2.0)
        stats.record({"ok": False, "error": "failed"}, 3.0)
        assert (stats.ok, stats.overloaded, stats.failed) == (1, 1, 1)
        view = stats.as_dict()
        assert view["p50_ms"] == 2.0

    def test_load_report_aggregates_and_ok(self):
        from repro.service.loadgen import LoadReport, OperationStats

        good = OperationStats(sent=10, ok=8, overloaded=2)
        report = LoadReport(
            offered_rate=100.0, duration=2.0, per_operation={"sample": good}
        )
        assert report.sent == 10
        assert report.achieved_rate == 4.0
        assert report.ok  # overloads are expected under load, not failures
        good.missing = 1
        assert not report.ok
        assert "sample" in report.summary_table()

    def test_drive_load_against_live_frontend(self):
        from repro.service.loadgen import drive_load
        from repro.workloads.arrivals import PoissonArrivals

        frontend = started()
        arrivals = PoissonArrivals(
            rate=300.0,
            duration=1.0,
            mix={"sample": 0.7, "join": 0.2, "leave": 0.1},
            seed=6,
        ).schedule()
        reports = []
        driver = threading.Thread(
            target=lambda: reports.append(
                drive_load(
                    "127.0.0.1", frontend.port, arrivals, offered_rate=300.0, connections=2
                )
            )
        )
        driver.start()
        try:
            while driver.is_alive():
                frontend.run_once(0.05)
        finally:
            frontend.stop()
            driver.join(timeout=30)
        assert not driver.is_alive()
        (report,) = reports
        scheduled = len(arrivals)
        assert report.sent == scheduled
        assert report.ok, (report.failed, report.missing)
        assert report.completed == scheduled
        assert report.succeeded + report.overloaded == scheduled
        sampled = report.per_operation["sample"]
        assert sampled.latency.count == sampled.ok + sampled.overloaded + sampled.failed
        assert sampled.as_dict()["p99_ms"] >= sampled.as_dict()["p50_ms"]


def launch_serve(*args):
    """A ``repro serve`` subprocess on a free port: ``(process, port)``."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        return server, int(re.search(r":(\d+) \(", server.stdout.readline()).group(1))
    except BaseException:
        kill_serve(server)
        raise


def kill_serve(server):
    """Kill ``server`` and its shard workers, unless they all exited."""
    try:
        os.killpg(server.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    server.communicate()


def children_of(pid):
    """The pids whose parent is ``pid``, read from ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def is_running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def half_closed_exchange(port, data):
    """Send ``data``, half-close, and return every answer until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as client:
        client.sendall(data)
        client.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := client.recv(1 << 16):
            received += chunk
    return [json.loads(line) for line in received.splitlines()]


class TestServeProcess:
    def test_graceful_shutdown_with_open_connections_logs_no_traceback(self):
        server, port = launch_serve("--initial-size", "80", "--max-size", "256")
        clients = []
        try:
            for index in range(2):
                client = socket.create_connection(("127.0.0.1", port), timeout=10)
                clients.append(client)
                client.sendall(encode_frame({"op": "ping", "id": index}))
                assert json.loads(client.makefile("rb").readline())["ok"]
            clients[0].sendall(encode_frame({"op": "shutdown", "id": 9}))
            assert json.loads(clients[0].makefile("rb").readline())["result"] == {
                "stopping": True
            }
            for client in clients:
                client.close()
            _, stderr = server.communicate(timeout=30)
        finally:
            for client in clients:
                client.close()
            if server.poll() is None:
                kill_serve(server)
        assert server.returncode == 0, stderr
        assert "Traceback" not in stderr, stderr

    @pytest.mark.parametrize("shards", ["0", "2"])
    def test_a_half_closing_client_gets_every_answer(self, tmp_path, shards):
        """One packet of 300 pipelined requests, then EOF: each is answered
        before the server closes the connection, and so is a last line
        without its newline."""
        trace = str(tmp_path / "half-closed.jsonl")
        server, port = launch_serve("--shards", shards, "--record", trace)
        try:
            frames = [{"op": ("join", "sample")[index % 2], "id": index} for index in range(300)]
            answers = half_closed_exchange(port, b"".join(map(encode_frame, frames)))
            assert sorted(answer["id"] for answer in answers) == list(range(300))
            assert all(answer["ok"] for answer in answers)
            tail = encode_frame({"op": "join", "id": "a"}) + b'{"op": "sample", "id": "b"}'
            answers = half_closed_exchange(port, tail)
            assert sorted(answer["id"] for answer in answers) == ["a", "b"]
            assert all(answer["ok"] for answer in answers)
            assert half_closed_exchange(port, b'{"op": "shutdown"}')[0]["ok"]
            stdout, stderr = server.communicate(timeout=60)
        finally:
            if server.poll() is None:
                kill_serve(server)
        assert server.returncode == 0, stderr
        assert "303 response(s) over 3 connection(s); queue accepted 302" in stdout, stdout
        report = replay_trace(trace)
        assert report.ok and report.events_applied == 151

    def test_sigterm_wakes_an_idle_server_and_stops_it_gracefully(self, tmp_path):
        trace = str(tmp_path / "terminated.jsonl")
        server, port = launch_serve("--initial-size", "80", "--max-size", "256", "--record", trace)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as client:
                client.sendall(encode_frame({"op": "join", "id": 1}))
                assert json.loads(client.makefile("rb").readline())["ok"]
                # The server now blocks in select with this connection open.
                server.send_signal(signal.SIGTERM)
                stdout, stderr = server.communicate(timeout=30)
        finally:
            if server.poll() is None:
                kill_serve(server)
        assert server.returncode == 0, stderr
        assert "Traceback" not in stderr, stderr
        assert "shutdown: received SIGTERM" in stdout, stdout
        assert TraceReader(trace).end_frame() is not None
        assert replay_trace(trace).ok

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads processes from /proc")
    def test_shard_workers_exit_when_the_server_alone_is_killed(self):
        """``serve --shards 3`` runs lane 0 itself and forks two workers.
        SIGKILL of the server alone (not its process group): each worker
        reads EOF on its pipe and exits, so none holds the server's stdout
        and stderr open and ``communicate()`` returns."""
        server, _port = launch_serve("--shards", "3")
        try:
            workers = children_of(server.pid)
            assert len(workers) == 2, workers
            server.kill()
            server.communicate(timeout=5)
            deadline = time.monotonic() + 5.0
            while any(map(is_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(is_running, workers)), workers
        finally:
            kill_serve(server)
