"""Service wire protocol, bounded queue and live-session semantics."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.service import (
    LiveEngineSession,
    ProtocolError,
    SERVICE_RNG_OFFSET,
    encode_frame,
    error_response,
    live_scenario,
    ok_response,
    parse_request,
)
from repro.service.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_FAILED,
    ERROR_UNKNOWN_OP,
    OPERATIONS,
)
from repro.service.queue import RequestQueue


class TestParseRequest:
    def test_minimal_valid_requests(self):
        for op in sorted(OPERATIONS):
            frame = parse_request(json.dumps({"op": op, "id": 1}))
            assert frame["op"] == op

    def test_join_with_all_fields(self):
        frame = parse_request(
            '{"op": "join", "id": "x", "role": "byzantine", '
            '"node_id": 7, "contact_cluster": 2}'
        )
        assert frame["role"] == "byzantine"
        assert frame["node_id"] == 7

    @pytest.mark.parametrize(
        "line,code",
        [
            ("not json at all", ERROR_BAD_REQUEST),
            ('["op", "sample"]', ERROR_BAD_REQUEST),
            ('{"id": 1}', ERROR_BAD_REQUEST),
            ('{"op": 7, "id": 1}', ERROR_BAD_REQUEST),
            ('{"op": "teleport", "id": 1}', ERROR_UNKNOWN_OP),
            ('{"op": "sample", "id": [1]}', ERROR_BAD_REQUEST),
            ('{"op": "sample", "id": 1, "extra": true}', ERROR_BAD_REQUEST),
            ('{"op": "join", "id": 1, "role": "sneaky"}', ERROR_BAD_REQUEST),
            ('{"op": "join", "id": 1, "node_id": "n7"}', ERROR_BAD_REQUEST),
            ('{"op": "join", "id": 1, "node_id": true}', ERROR_BAD_REQUEST),
            ('{"op": "join", "id": 1, "contact_cluster": 1.5}', ERROR_BAD_REQUEST),
            ('{"op": "leave", "id": 1, "node_id": "n7"}', ERROR_BAD_REQUEST),
            ('{"op": "sample", "id": 1, "payload": "x"}', ERROR_BAD_REQUEST),
        ],
    )
    def test_invalid_requests_rejected(self, line, code):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(line)
        assert excinfo.value.code == code

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_id_is_refused_without_its_id(self, token):
        """Echoed, a non-finite id would be the non-JSON token NaN/Infinity."""
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(f'{{"op": "ping", "id": {token}}}')
        assert excinfo.value.code == ERROR_BAD_REQUEST
        assert excinfo.value.request_id is None

    def test_error_carries_salvaged_id(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request('{"op": "teleport", "id": 42}')
        assert excinfo.value.request_id == 42
        assert excinfo.value.op == "teleport"


class TestResponses:
    def test_ok_response_shape(self):
        frame = ok_response(3, "sample", {"node_id": 1}, latency_ms=2.5)
        assert frame == {
            "id": 3,
            "ok": True,
            "op": "sample",
            "result": {"node_id": 1},
            "latency_ms": 2.5,
        }

    def test_error_response_shape(self):
        frame = error_response(3, "sample", ERROR_FAILED, "nope")
        assert frame["ok"] is False
        assert frame["error"] == ERROR_FAILED

    def test_encode_frame_is_one_json_line(self):
        raw = encode_frame(ok_response(1, "ping", {"pong": True}))
        assert raw.endswith(b"\n")
        assert json.loads(raw) == ok_response(1, "ping", {"pong": True})
        assert raw.count(b"\n") == 1

    def test_encode_frame_bytes_are_pinned(self):
        """Compact separators, ASCII escapes, key order kept, floats by repr."""
        result = {"node_id": 7, "coverage": 0.1, "payload": "é✓", "shard": None}
        raw = encode_frame(ok_response("a", "sample", result, latency_ms=1.25))
        assert raw == (
            b'{"id":"a","ok":true,"op":"sample","result":{"node_id":7,"coverage":0.1,'
            b'"payload":"\\u00e9\\u2713","shard":null},"latency_ms":1.25}\n'
        )
        raw = encode_frame(error_response(None, None, ERROR_FAILED, "node 5 is not active"))
        assert raw == (
            b'{"id":null,"ok":false,"op":null,"error":"failed",'
            b'"message":"node 5 is not active","latency_ms":0.0}\n'
        )
        sample = {
            "node_id": 113, "cluster_id": 6, "shard": 1, "is_byzantine": False,
            "messages": 1234.5, "rounds": 17.25, "walk_hops": 9.333333333333334,
        }
        raw = encode_frame(ok_response(3, "sample", sample, latency_ms=0.042))
        assert raw == (
            b'{"id":3,"ok":true,"op":"sample","result":{"node_id":113,"cluster_id":6,'
            b'"shard":1,"is_byzantine":false,"messages":1234.5,"rounds":17.25,'
            b'"walk_hops":9.333333333333334},"latency_ms":0.042}\n'
        )
        broadcast = {
            "origin_cluster": 6, "origin_shard": 1, "clusters_reached": 21,
            "cluster_count": 24, "nodes_reached": 250, "coverage": 0.875,
            "messages": 4321, "rounds": 5,
        }
        raw = encode_frame(ok_response("b-9", "broadcast", broadcast, latency_ms=12.5))
        assert raw == (
            b'{"id":"b-9","ok":true,"op":"broadcast","result":{"origin_cluster":6,'
            b'"origin_shard":1,"clusters_reached":21,"cluster_count":24,"nodes_reached":250,'
            b'"coverage":0.875,"messages":4321,"rounds":5},"latency_ms":12.5}\n'
        )


class TestRequestQueue:
    def test_fifo_offer_and_drain(self):
        queue = RequestQueue(maxsize=4)
        for item in "abc":
            assert queue.offer(item)
        assert queue.drain(2) == ["a", "b"]
        assert queue.drain(10) == ["c"]
        assert queue.accepted == 3
        assert queue.rejected == 0

    def test_fast_fail_when_full(self):
        queue = RequestQueue(maxsize=2)
        assert queue.offer(1) and queue.offer(2)
        assert not queue.offer(3)
        assert queue.rejected == 1
        assert len(queue) == 2
        queue.drain(1)
        assert queue.offer(3)

    def test_closed_queue_rejects_but_still_drains(self):
        queue = RequestQueue(maxsize=4)
        queue.offer("x")
        queue.close()
        assert queue.closed
        assert not queue.offer("y")
        assert queue.drain(10) == ["x"]

    def test_bound_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RequestQueue(maxsize=0)


@pytest.fixture()
def session():
    live = LiveEngineSession(live_scenario(seed=11, initial_size=80, max_size=256))
    yield live
    live.close()


class TestLiveEngineSession:
    def test_comparison_rule_session_applies_a_join_and_answers_a_sample(self):
        live = LiveEngineSession(
            live_scenario(seed=11, initial_size=80, max_size=256, engine="no_shuffle")
        )
        try:
            joined = live.execute({"op": "join", "id": 1})
            assert joined["network_size"] == 81
            assert live.driver.engine.rule == "no_shuffle"
            sampled = live.execute({"op": "sample", "id": 2})
            assert sampled["node_id"] in live.driver.engine.active_nodes()
        finally:
            live.close()

    def test_service_rng_offsets_scenario_seed(self, session):
        import random

        probe = random.Random(11 + SERVICE_RNG_OFFSET)
        assert session.rng.random() == probe.random()

    def test_join_and_leave_advance_engine_time(self, session):
        before = session.driver.engine.state.time_step
        joined = session.execute({"op": "join", "id": 1})
        left = session.execute({"op": "leave", "id": 2, "node_id": joined["node_id"]})
        assert session.driver.engine.state.time_step == before + 2
        assert session.events_applied == 2
        assert left["network_size"] == joined["network_size"] - 1

    def test_join_existing_active_node_fails_preflight(self, session):
        joined = session.execute({"op": "join", "id": 1})
        time_before = session.driver.engine.state.time_step
        with pytest.raises(ProtocolError) as excinfo:
            session.execute({"op": "join", "id": 2, "node_id": joined["node_id"]})
        assert excinfo.value.code == ERROR_FAILED
        # Pre-flight rejection must not consume a protocol time step —
        # that is the replay-divergence hazard the checks exist to prevent.
        assert session.driver.engine.state.time_step == time_before
        assert session.events_applied == 1

    def test_leave_unknown_node_fails_preflight(self, session):
        time_before = session.driver.engine.state.time_step
        with pytest.raises(ProtocolError) as excinfo:
            session.execute({"op": "leave", "id": 1, "node_id": 10**9})
        assert excinfo.value.code == ERROR_FAILED
        assert session.driver.engine.state.time_step == time_before

    def test_join_at_max_size_fails_preflight(self):
        live = LiveEngineSession(
            live_scenario(seed=3, initial_size=40, max_size=40)
        )
        try:
            with pytest.raises(ProtocolError) as excinfo:
                live.execute({"op": "join", "id": 1})
            assert excinfo.value.code == ERROR_FAILED
            assert live.events_applied == 0
        finally:
            live.close()

    def test_anonymous_leave_matches_named_leave_of_same_node(self):
        # The anonymous-leave pick draws from the service stream, so a
        # sibling session that names the same node explicitly must land on
        # the identical engine state — the recorded trace only ever sees
        # the concrete node id.
        from repro.trace.hashing import state_hash

        anonymous = LiveEngineSession(live_scenario(seed=5, initial_size=90))
        named = LiveEngineSession(live_scenario(seed=5, initial_size=90))
        try:
            picked = anonymous.execute({"op": "leave", "id": 1})["node_id"]
            named.execute({"op": "leave", "id": 1, "node_id": picked})
            assert state_hash(anonymous.driver.engine) == state_hash(named.driver.engine)
        finally:
            anonymous.close()
            named.close()

    def test_reads_do_not_touch_engine_rng_or_time(self, session):
        from repro.trace.hashing import rng_digest

        time_before = session.driver.engine.state.time_step
        digest_before = rng_digest(session.driver.engine.state.rng)
        session.execute({"op": "sample", "id": 1})
        session.execute({"op": "broadcast", "id": 2, "payload": "hi"})
        session.execute({"op": "status", "id": 3})
        session.execute({"op": "ping", "id": 4})
        assert session.driver.engine.state.time_step == time_before
        assert rng_digest(session.driver.engine.state.rng) == digest_before
        assert session.events_applied == 0

    def test_status_reports_counters(self, session):
        session.execute({"op": "sample", "id": 1})
        session.execute({"op": "join", "id": 2})
        status = session.execute({"op": "status", "id": 3})
        assert status["events_applied"] == 1
        assert status["operations"] == {"sample": 1, "join": 1}
        assert status["network_size"] == session.driver.engine.network_size
        assert status["recording"] is None

    def test_closed_session_refuses_requests(self, session):
        session.close()
        with pytest.raises(ConfigurationError):
            session.execute({"op": "ping", "id": 1})

    def test_an_operation_the_session_does_not_serve_is_refused(self, session):
        with pytest.raises(ConfigurationError, match="shutdown"):
            session.execute({"op": "shutdown", "id": 1})
        with pytest.raises(ConfigurationError, match="shutdown"):
            session.serve([{"op": "join", "id": 2}, {"op": "shutdown", "id": 3}], print)
        assert session.events_applied == 0
        assert session.operations == {}

    def test_attach_trace_after_events_is_rejected(self, session, tmp_path):
        session.execute({"op": "join", "id": 1})
        with pytest.raises(ConfigurationError):
            session.attach_trace(str(tmp_path / "late.jsonl"))
