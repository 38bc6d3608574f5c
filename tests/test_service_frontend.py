"""ServiceFrontend over real sockets: backpressure, errors, shutdown."""

from __future__ import annotations

import asyncio
import json
import os
import re
import socket
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.service import LiveEngineSession, ProtocolError, encode_frame, live_scenario
from repro.service.frontend import MAX_LINE, ServiceFrontend, _Connection, _Pending
from repro.trace import TraceReader, replay_trace

from service_helpers import SIZES, normalise
from service_helpers import make_session as make_backend_session


def make_session(seed: int = 9) -> LiveEngineSession:
    return LiveEngineSession(live_scenario(seed=seed, initial_size=80, max_size=256))


async def connect(frontend: ServiceFrontend):
    return await asyncio.open_connection("127.0.0.1", frontend.port)


async def rpc(reader, writer, frame):
    """Send one request frame and read one response line."""
    writer.write(encode_frame(frame))
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=5)
    assert line, "server closed the connection"
    return json.loads(line)


async def close_writer(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass


class StubTransport:
    """Records what a connection writes; no socket behind it."""

    def __init__(self):
        self.written = []
        self.reading = True
        self.closed = False

    def write(self, data):
        self.written.append(data)

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def responses(self):
        return [json.loads(line) for line in b"".join(self.written).splitlines()]


def stub_connection(frontend):
    conn = _Connection(frontend)
    transport = StubTransport()
    conn.connection_made(transport)
    return conn, transport


async def answered(transport, count):
    """The stub's responses once there are ``count`` of them."""
    for _ in range(500):
        if len(transport.responses()) >= count:
            break
        await asyncio.sleep(0.01)
    return transport.responses()


class TestRequestResponse:
    def test_ping_and_sample_round_trip(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                reader, writer = await connect(frontend)
                pong = await rpc(reader, writer, {"op": "ping", "id": 1})
                assert pong["ok"] and pong["result"] == {"pong": True}
                assert pong["id"] == 1
                assert pong["latency_ms"] >= 0
                sampled = await rpc(reader, writer, {"op": "sample", "id": "s"})
                assert sampled["ok"]
                assert "node_id" in sampled["result"]
                await close_writer(writer)
            finally:
                await frontend.stop()

        asyncio.run(scenario())

    def test_responses_matched_by_id_when_pipelined(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                reader, writer = await connect(frontend)
                for index in range(20):
                    writer.write(encode_frame({"op": "sample", "id": index}))
                await writer.drain()
                seen = set()
                for _ in range(20):
                    line = await asyncio.wait_for(reader.readline(), timeout=5)
                    response = json.loads(line)
                    assert response["ok"]
                    seen.add(response["id"])
                assert seen == set(range(20))
                await close_writer(writer)
            finally:
                await frontend.stop()

        asyncio.run(scenario())

    def test_malformed_request_answers_error_and_connection_survives(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                reader, writer = await connect(frontend)
                writer.write(b"this is not json\n")
                await writer.drain()
                bad = json.loads(await asyncio.wait_for(reader.readline(), timeout=5))
                assert bad["ok"] is False
                assert bad["error"] == "bad_request"
                unknown = await rpc(reader, writer, {"op": "teleport", "id": 2})
                assert unknown["error"] == "unknown_op"
                assert unknown["id"] == 2
                # The same connection still serves valid requests.
                pong = await rpc(reader, writer, {"op": "ping", "id": 3})
                assert pong["ok"]
                await close_writer(writer)
            finally:
                await frontend.stop()

        asyncio.run(scenario())

    def test_engine_rejection_is_failed_not_fatal(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                reader, writer = await connect(frontend)
                response = await rpc(
                    reader, writer, {"op": "leave", "id": 1, "node_id": 10**9}
                )
                assert response["ok"] is False
                assert response["error"] == "failed"
                pong = await rpc(reader, writer, {"op": "ping", "id": 2})
                assert pong["ok"]
                await close_writer(writer)
            finally:
                await frontend.stop()

        asyncio.run(scenario())

    def test_status_includes_queue_stats(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0, max_queue=7)
            await frontend.start()
            try:
                reader, writer = await connect(frontend)
                await rpc(reader, writer, {"op": "ping", "id": 0})
                status = await rpc(reader, writer, {"op": "status", "id": 1})
                queue = status["result"]["queue"]
                assert queue["bound"] == 7
                assert queue["accepted"] >= 2
                assert queue["rejected"] == 0
                assert queue["depth"] >= 0
                await close_writer(writer)
            finally:
                await frontend.stop()

        asyncio.run(scenario())


class TestBackpressure:
    def test_full_queue_fast_fails_with_overloaded(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0, max_queue=1)
            await frontend.start()
            try:
                # Pin the queue at "full" so admission (not pump speed)
                # decides the outcome: the overloaded fast-path must answer
                # without the request ever reaching the engine.
                frontend.queue.offer = lambda item: False
                reader, writer = await connect(frontend)
                events_before = frontend.session.events_applied
                response = await rpc(reader, writer, {"op": "join", "id": 1})
                assert response["ok"] is False
                assert response["error"] == "overloaded"
                assert "full" in response["message"]
                assert frontend.session.events_applied == events_before
                await close_writer(writer)
            finally:
                await frontend.stop()

        asyncio.run(scenario())

    def test_real_overload_rejects_beyond_bound(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0, max_queue=2)
            await frontend.start()
            try:
                # Park the pump: it is awaiting the current wakeup event, so
                # swapping in a fresh one means offers no longer wake it and
                # requests pile up against the real bound.
                parked_wakeup = frontend.queue._wakeup
                frontend.queue._wakeup = asyncio.Event()
                reader, writer = await connect(frontend)
                for index in range(5):
                    writer.write(encode_frame({"op": "ping", "id": index}))
                await writer.drain()
                # Only the overloaded rejections answer immediately.
                rejected = []
                for _ in range(3):
                    line = await asyncio.wait_for(reader.readline(), timeout=5)
                    rejected.append(json.loads(line))
                assert all(r["error"] == "overloaded" for r in rejected)
                assert {r["id"] for r in rejected} == {2, 3, 4}
                assert frontend.queue.rejected == 3
                await close_writer(writer)
                # Un-park the pump so stop() can drain the two admitted
                # requests (their connection is gone; responses are dropped).
                parked_wakeup.set()
            finally:
                await frontend.stop()
            assert frontend.session.operations.get("ping", 0) == 2

        asyncio.run(scenario())


class TestLineFraming:
    def test_over_long_line_answers_bad_request_and_connection_survives(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                reader, writer = await connect(frontend)
                huge = {"op": "broadcast", "id": 1, "payload": "x" * 70_000}
                writer.write(encode_frame(huge) + encode_frame({"op": "ping", "id": 2}))
                await writer.drain()
                bad = json.loads(await asyncio.wait_for(reader.readline(), timeout=5))
                assert bad["ok"] is False and bad["error"] == "bad_request"
                assert bad["id"] is None
                assert str(MAX_LINE) in bad["message"]
                pong = json.loads(await asyncio.wait_for(reader.readline(), timeout=5))
                assert pong["id"] == 2 and pong["result"] == {"pong": True}
                await close_writer(writer)
            finally:
                await frontend.stop()

        asyncio.run(scenario())

    def test_line_split_across_many_chunks(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                conn, transport = stub_connection(frontend)
                data = encode_frame({"op": "ping", "id": 1})
                # An over-long line that only overflows once its pieces add up,
                # then a request in the chunk that ends it.
                data += b"[" + b" " * MAX_LINE + b"]\n" + encode_frame({"op": "ping", "id": 2})
                for start in range(0, len(data), 1000):
                    conn.data_received(data[start : start + 1000])
                by_id = {r["id"]: r for r in await answered(transport, 3)}
                assert sorted(by_id, key=str) == [1, 2, None]
                assert by_id[None]["error"] == "bad_request"
                assert by_id[1]["result"] == by_id[2]["result"] == {"pong": True}
                # Byte by byte: still one request.
                for byte in encode_frame({"op": "ping", "id": 3}):
                    conn.data_received(bytes([byte]))
                assert (await answered(transport, 4))[3]["id"] == 3
            finally:
                await frontend.stop()

        asyncio.run(scenario())

    def test_blank_lines_between_requests_are_ignored(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                conn, transport = stub_connection(frontend)
                conn.data_received(
                    encode_frame({"op": "ping", "id": 1})
                    + b"\n  \r\n"
                    + encode_frame({"op": "ping", "id": 2})
                )
                responses = await answered(transport, 2)
                await asyncio.sleep(0.05)
                assert [r["id"] for r in transport.responses()] == [1, 2]
                assert all(r["ok"] for r in responses)
            finally:
                await frontend.stop()

        asyncio.run(scenario())


    def test_last_line_without_newline_is_answered_at_eof(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                conn, transport = stub_connection(frontend)
                conn.data_received(b'{"op": "shutdown", "id": 1}')
                assert transport.responses() == []
                conn.eof_received()
                assert transport.responses()[0]["result"] == {"stopping": True}
                assert frontend.shutdown_reason == "client shutdown request"
            finally:
                await frontend.stop()

        asyncio.run(scenario())


class TestTransportBackpressure:
    def test_pause_writing_pauses_reading_and_admitted_requests_are_answered(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                conn, transport = stub_connection(frontend)
                conn.data_received(
                    b"".join(encode_frame({"op": "sample", "id": i}) for i in range(5))
                )
                # The transport's buffer crossed its high-water mark: the
                # client's further requests wait in the kernel, not here.
                conn.pause_writing()
                assert transport.reading is False
                conn.resume_writing()
                assert transport.reading is True
                responses = await answered(transport, 5)
                assert sorted(r["id"] for r in responses) == list(range(5))
                assert all(r["ok"] for r in responses)
            finally:
                await frontend.stop()

        asyncio.run(scenario())


class TestFailureInsideTheEngine:
    """A write that fails past admission is applied-but-unrecorded: fatal.
    A read that fails changed nothing: answered ``failed``, service goes on."""

    @pytest.mark.parametrize("backend", ["single", "shards=1"])
    def test_trace_write_failure_stops_server_and_trace_replays(self, tmp_path, backend):
        path = str(tmp_path / "failing.jsonl")

        async def scenario():
            session = make_backend_session(backend, seed=6)
            writer = session.attach_trace(path)
            write_record, calls = writer.write_record, []

            def failing_write(record):
                calls.append(record)
                if len(calls) == 4:
                    raise OSError(28, "No space left on device")
                write_record(record)

            writer.write_record = failing_write
            frontend = ServiceFrontend(session, port=0)
            await frontend.start()
            reader, stream = await connect(frontend)
            for index in range(3):
                assert (await rpc(reader, stream, {"op": "join", "id": index}))["ok"]
            doomed = await rpc(reader, stream, {"op": "join", "id": "k"})
            assert doomed["ok"] is False and doomed["error"] == "failed"
            late = await rpc(reader, stream, {"op": "join", "id": "late"})
            assert late["ok"] is False and late["error"] == "shutting_down"
            await close_writer(stream)
            with pytest.raises(OSError, match="No space left"):
                await frontend.serve_until_shutdown()
            assert "engine pump failed" in frontend.shutdown_reason
            assert session.closed

        asyncio.run(scenario())
        # Sealed crashed-shape: the three recorded events, no end frame, and
        # the file replays clean to its last frame.
        trace = TraceReader(path)
        assert trace.event_count() == 3 and trace.end_frame() is None
        report = replay_trace(path)
        assert report.ok and report.events_applied == 3

    def test_failing_read_answers_failed_and_service_continues(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                def broken_sample(rng):
                    raise RuntimeError("walk fell off the overlay")

                frontend.session.read_model.sample = broken_sample
                reader, writer = await connect(frontend)
                response = await rpc(reader, writer, {"op": "sample", "id": 1})
                assert response["ok"] is False and response["error"] == "failed"
                assert "internal error" in response["message"]
                assert (await rpc(reader, writer, {"op": "join", "id": 2}))["ok"]
                assert frontend.pump_error is None
                await close_writer(writer)
            finally:
                await frontend.stop()

        asyncio.run(scenario())


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
    """Feed ``packets`` to one stub connection, yielding to the pump after
    each packet ``yields`` marks, then stop the frontend.

    Returns the stub transport and the error ``stop`` re-raised (or ``None``).
    """

    async def scenario():
        frontend.session.start()
        frontend._pump_task = asyncio.create_task(frontend._pump())
        conn, transport = stub_connection(frontend)
        for packet, pause in zip(packets, yields):
            conn.data_received(packet)
            if pause:
                await asyncio.sleep(0)
        try:
            await frontend.stop()
        except Exception as error:
            return transport, error
        return transport, None

    return asyncio.run(scenario())


class TestStubTransport:
    """The frontend in process: a stub transport, no socket, no server."""

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
        transport, error = serve_packets(ServiceFrontend(served, max_batch=5), packets, yields)
        assert error is None
        responses = transport.responses()
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
        transport, error = serve_packets(frontend, [b"".join(map(encode_frame, frames))], [True])
        assert isinstance(error, RuntimeError) and "engine pump failed" in frontend.shutdown_reason
        responses = transport.responses()
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
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            serve = asyncio.ensure_future(frontend.serve_until_shutdown())
            reader, writer = await connect(frontend)
            response = await rpc(reader, writer, {"op": "shutdown", "id": 1})
            assert response["ok"] and response["result"] == {"stopping": True}
            await asyncio.wait_for(serve, timeout=5)
            assert frontend.shutdown_reason == "client shutdown request"
            assert frontend.session.closed
            await close_writer(writer)

        asyncio.run(scenario())

    def test_stop_drains_admitted_requests(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            conn, transport = stub_connection(frontend)
            for index in range(5):
                assert frontend.queue.offer(_Pending({"op": "join", "id": index}, conn))
            # Stop immediately: everything already admitted must still be
            # executed and answered before the session seals its trace.
            await frontend.stop()
            responses = transport.responses()
            assert sorted(r["id"] for r in responses) == list(range(5))
            assert all(r["ok"] for r in responses)
            assert transport.closed
            assert frontend.session.events_applied == 5

        asyncio.run(scenario())

    def test_requests_after_close_answer_shutting_down(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                reader, writer = await connect(frontend)
                await rpc(reader, writer, {"op": "ping", "id": 1})
                frontend.queue.close()
                response = await rpc(reader, writer, {"op": "ping", "id": 2})
                assert response["error"] == "shutting_down"
                await close_writer(writer)
            finally:
                await frontend.stop()

        asyncio.run(scenario())

    def test_stop_is_idempotent(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            await frontend.stop()
            await frontend.stop()
            assert frontend.session.closed

        asyncio.run(scenario())


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

        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                arrivals = PoissonArrivals(
                    rate=300.0,
                    duration=1.0,
                    mix={"sample": 0.7, "join": 0.2, "leave": 0.1},
                    seed=6,
                ).schedule()
                report = await asyncio.to_thread(
                    drive_load,
                    "127.0.0.1",
                    frontend.port,
                    arrivals,
                    offered_rate=300.0,
                    connections=2,
                )
            finally:
                await frontend.stop()
            return report, len(arrivals)

        report, scheduled = asyncio.run(scenario())
        assert report.sent == scheduled
        assert report.ok, (report.failed, report.missing)
        assert report.completed == scheduled
        assert report.succeeded + report.overloaded == scheduled
        sampled = report.per_operation["sample"]
        assert sampled.latency.count == sampled.ok + sampled.overloaded + sampled.failed
        assert sampled.as_dict()["p99_ms"] >= sampled.as_dict()["p50_ms"]


class TestServeProcess:
    def test_graceful_shutdown_with_open_connections_logs_no_traceback(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        server = subprocess.Popen(
            command + ["--initial-size", "80", "--max-size", "256"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        clients = []
        try:
            port = int(re.search(r":(\d+) \(", server.stdout.readline()).group(1))
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
                server.kill()
                server.communicate()
        assert server.returncode == 0, stderr
        assert "Traceback" not in stderr, stderr
