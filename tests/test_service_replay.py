"""The live-session contract, on every backend.

One suite, parametrised over the backends a session can run on (the single
engine, the shard coordinator inline, the shard coordinator on two worker
processes).  The determinism contract under test: every churn event a live
session applies is recorded exactly as applied, the anonymous-leave pick
draws from the write stream (``seed + 4``) and every read from the read
stream (``seed + 5``) — so re-applying the recorded events through the same
backend, rebuilt from the trace header, reproduces the identical state, hash
for hash, however the pump chunked the requests and whatever was read in
between.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.service import ProtocolError
from repro.service.frontend import ServiceFrontend
from repro.trace import TraceReader, replay_trace

from service_helpers import (
    BACKENDS,
    SIZES,
    LoopClient,
    cadence_marks,
    frames_from_ops,
    make_session,
    normalise,
    pump,
)

on_every_backend = pytest.mark.parametrize("backend", list(BACKENDS))


def event_frames(path):
    return [frame for frame in TraceReader(path).frames if frame["t"] == "ev"]


@st.composite
def hostile_writes(draw):
    """Write frames that lean on admission: fresh joins, joins naming ids
    within 3 of the next fresh id (that is, ids joins of the same batch may
    receive), anonymous leaves, leaves naming ids near the next one, and
    rejoins naming either role."""
    frames, joins = [], 0
    for index in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["join", "named-join", "leave", "named-leave"]))
        frame = {"op": kind.split("-")[-1], "id": index}
        if kind.startswith("named"):
            frame["node_id"] = SIZES["initial_size"] + joins + draw(st.integers(-3, 3))
        if frame["op"] == "join":
            joins += 1
            role = draw(st.sampled_from([None, "honest", "byzantine"]))
            if role is not None:
                frame["role"] = role
        frames.append(frame)
    return frames


class TestRecordedSessionReplays:
    @on_every_backend
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        ops=st.lists(
            st.sampled_from(
                ["join", "join", "byzantine-join", "leave", "sample", "broadcast", "status"]
            ),
            min_size=1,
            max_size=40,
        ),
        seed=st.integers(min_value=1, max_value=50),
    )
    def test_any_request_sequence_replays_divergence_free(
        self, tmp_path_factory, backend, ops, seed
    ):
        path = str(tmp_path_factory.mktemp("live") / "trace.jsonl")
        session = make_session(backend, seed=seed)
        try:
            session.attach_trace(path, index_every=5)
            pump(session, frames_from_ops(ops), chunk=8)
            recorded_hash = session.state_hash()
        finally:
            session.close()
        report = replay_trace(path)
        assert report.ok, report.divergence
        assert report.events_applied == session.events_applied
        assert report.final_hash == report.recorded_final_hash == recorded_hash

    @on_every_backend
    def test_chunking_does_not_change_events_or_hash(self, tmp_path, backend):
        """Pump chunk size is invisible: same events, same state hash.

        The second stream names the ids fresh joins of the same batch
        receive: a named join of one is a double join, a named leave of one
        is admitted, whatever the chunking.
        """
        fresh = SIZES["initial_size"]  # the id the first fresh join receives
        hostile = [
            {"op": "join"}, {"op": "join", "node_id": fresh},
            {"op": "join"}, {"op": "leave", "node_id": fresh + 1},
            {"op": "leave", "node_id": fresh + 1}, {"op": "join", "node_id": fresh + 1},
            {"op": "leave"}, {"op": "join", "node_id": fresh + 2}, {"op": "join"},
        ]
        for name, frames in (
            ("plain", frames_from_ops(["join"] * 30 + ["leave"] * 10 + ["join"] * 30)),
            ("hostile", [dict(frame, id=index) for index, frame in enumerate(hostile * 3)]),
        ):
            streams = {}
            for chunk in (1, 7, 64):
                path = str(tmp_path / f"{name}-chunk{chunk}.jsonl")
                session = make_session(backend, seed=4)
                try:
                    session.attach_trace(path, index_every=1000)
                    outcomes = pump(session, frames, chunk=chunk)
                    state = session.state_hash()
                finally:
                    session.close()
                streams[chunk] = ([normalise(o) for o in outcomes], state, event_frames(path))
            assert streams[7] == streams[1], name
            assert streams[64] == streams[1], name
        verdicts = streams[1][0]
        assert verdicts[1] == ("error", "failed", f"node {fresh} is already active")
        assert verdicts[3]["node_id"] == fresh + 1  # the named leave is admitted

    @on_every_backend
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(frames=hostile_writes(), data=st.data())
    def test_any_chunking_answers_as_one_request_at_a_time(
        self, tmp_path_factory, backend, frames, data
    ):
        """Admission is one rule: each write is checked against the registry
        as the driver pulls it, so a stream cut into any pump batches gives
        the outcomes, trace bytes and final hash of the same writes sent one
        at a time.  The size bounds sit three nodes either side of the
        start, so batches run into both."""
        cuts = data.draw(st.sets(st.integers(1, len(frames))), label="cuts")
        bounds = [0, *sorted(cuts), len(frames)]
        tmp = tmp_path_factory.mktemp("chunks")

        def run(name, send):
            path = str(tmp / f"{name}.jsonl")
            session = make_session(backend, seed=12)
            params = session.driver.params
            session.driver.params = dataclasses.replace(
                params, min_size=session.network_size - 3, max_size=session.network_size + 3
            )
            try:
                session.attach_trace(path, index_every=10**6)
                outcomes = [normalise(outcome) for outcome in send(session)]
                state = session.state_hash()
            finally:
                session.close()
            with open(path, "rb") as handle:
                return outcomes, handle.read(), state

        def one_at_a_time(session):
            for frame in frames:
                try:
                    yield session.execute(frame)
                except ProtocolError as error:
                    yield error

        def chunked(session):
            for start, end in zip(bounds, bounds[1:]):
                if end > start:
                    yield from pump(session, frames[start:end], chunk=end - start)

        assert run("chunked", chunked) == run("single", one_at_a_time)

    @on_every_backend
    def test_contact_joins_record_and_replay(self, tmp_path, backend):
        """A join contacting a sampled cluster records that cluster's name and
        replays; a contact no trace frame can hold is refused."""
        session = make_session(backend, seed=4)
        path = str(tmp_path / "contact.jsonl")
        session.attach_trace(path)
        try:
            for contact in (-5, 2**31):
                with pytest.raises(ProtocolError, match="is no cluster name"):
                    session.execute({"op": "join", "contact_cluster": contact})
            names = [session.execute({"op": "sample"})["cluster_id"] for _ in range(5)]
            for name in names:
                session.execute({"op": "join", "contact_cluster": name})
        finally:
            session.close()
        assert [frame["c"] for frame in event_frames(path)] == names
        assert replay_trace(path).ok

    @on_every_backend
    @pytest.mark.parametrize("trace_format", ["jsonl", "binary"])
    def test_joins_naming_ids_no_trace_can_hold_are_refused(self, tmp_path, backend, trace_format):
        """A join naming a node id outside ``[0, 2**31)`` is refused, naming
        the id, and the recording that saw the attempts replays."""
        session = make_session(backend, seed=4)
        path = str(tmp_path / f"named.{trace_format}")
        session.attach_trace(path, trace_format=trace_format)
        try:
            for node_id in (-5, 2**31, 2**64):
                with pytest.raises(ProtocolError, match=f"node_id {node_id} is no node id"):
                    session.execute({"op": "join", "node_id": node_id})
            session.execute({"op": "join"})
        finally:
            session.close()
        report = replay_trace(path)
        assert report.ok and report.events_applied == 1

    @on_every_backend
    def test_index_frames_sit_on_pump_window_boundaries(self, tmp_path, backend):
        """The recorder's cadence law with the pump batch as the window: an
        index frame at the first window boundary at or after every
        ``index_every`` events; a failed session stays replayable."""
        path = str(tmp_path / "live.jsonl")
        session = make_session(backend, seed=5)
        session.attach_trace(path, index_every=10)
        pump(session, frames_from_ops(["join"] * 45), chunk=7)
        session.close(ok=False)
        reader = TraceReader(path)
        assert reader.event_count() == 45 and reader.end_frame() is None
        boundaries = [*range(7, 45, 7), 45]
        assert [frame["ev"] for frame in reader.index_frames()] == cadence_marks(boundaries, 10)
        assert [frame["i"] for frame in reader.index_frames()] == [14, 28, 42]
        report = replay_trace(path)
        assert report.ok and report.hash_checks == 3, report.divergence

    @on_every_backend
    @pytest.mark.parametrize("trace_format", ["jsonl", "binary"])
    def test_crashed_shape_trace_still_replays(self, tmp_path, backend, trace_format):
        """Sealed or crashed-shape, JSONL or binary: the trace replays."""
        ops = ["join", "leave", "join", "sample", "join"] * 5
        hashes = {}
        for ok in (True, False):
            path = str(tmp_path / f"ok{ok}.trace")
            session = make_session(backend, seed=8)
            session.attach_trace(path, index_every=10, trace_format=trace_format)
            pump(session, frames_from_ops(ops), chunk=4)
            # ok=False is the crash path: frames flushed, no end frame.
            session.close(ok=ok)
            assert (TraceReader(path).end_frame() is not None) == ok
            report = replay_trace(path)
            assert report.ok, report.divergence
            assert report.events_applied == session.events_applied == 20
            assert report.hash_checks == 2
            hashes[ok] = report.final_hash
        assert hashes[True] == hashes[False]

    @on_every_backend
    def test_interleaved_reads_do_not_perturb_replay(self, tmp_path, backend):
        """Read traffic moves neither the events, the leavers nor the hash.

        Anonymous leaves are the sharp case: their pick draws from the write
        stream, which reads must never consume.
        """
        writes = frames_from_ops(["join"] * 10 + ["leave"] * 6)

        def run(name: str, noisy: bool):
            path = str(tmp_path / f"{name}.jsonl")
            session = make_session(backend, seed=33)
            outcomes = []
            try:
                session.attach_trace(path, index_every=5)
                for index, frame in enumerate(writes):
                    if noisy:
                        for burst in range(5):
                            session.execute({"op": "sample", "id": f"s{index}-{burst}"})
                        session.execute({"op": "broadcast", "id": f"b{index}", "payload": "x"})
                        session.execute({"op": "status", "id": f"t{index}"})
                    outcomes.append(normalise(session.execute(frame)))
                state = session.state_hash()
            finally:
                session.close()
            with open(path, "rb") as handle:
                return outcomes, state, handle.read(), replay_trace(path)

        quiet = run("quiet", noisy=False)
        noisy = run("noisy", noisy=True)
        assert noisy[:3] == quiet[:3]
        assert quiet[3].ok and noisy[3].ok
        assert noisy[3].final_hash == quiet[3].final_hash == quiet[1]

    def test_admission_rejections_identical_on_every_backend(self):
        """Same requests, same verdicts: codes and messages do not depend on
        the backend (the rules are written once, against its registry)."""

        def verdicts(backend: str):
            session = make_session(backend, seed=3)
            seen = []

            def batch(*frames):
                for outcome in pump(session, list(frames), chunk=len(frames)):
                    if isinstance(outcome, ProtocolError):
                        seen.append(normalise(outcome))
                    else:
                        seen.append(("ok", outcome["node_id"], outcome["network_size"]))

            try:
                batch({"op": "join", "node_id": 9000})
                batch({"op": "join", "node_id": 9000})  # double join
                batch({"op": "leave", "node_id": 10**9})  # unknown leave
                # Same-batch sequencing: join→leave of one node, a repeated
                # join, a repeated leave, leave→rejoin.
                batch({"op": "join", "node_id": 9001}, {"op": "leave", "node_id": 9001})
                batch({"op": "join", "node_id": 9002}, {"op": "join", "node_id": 9002})
                batch({"op": "leave", "node_id": 9000}, {"op": "leave", "node_id": 9000})
                batch({"op": "leave", "node_id": 9002}, {"op": "join", "node_id": 9002})
                # The ids fresh joins of the same batch receive (9003, 9004):
                # a named join of one is a double join, a named leave of one
                # is admitted, and the session keeps serving.
                batch({"op": "join"}, {"op": "join", "node_id": 9003})
                batch({"op": "join"}, {"op": "leave", "node_id": 9004})
                # Lower bound: two above the floor, three leaves in one batch.
                session.driver.params = dataclasses.replace(
                    session.driver.params, min_size=session.network_size - 2
                )
                batch({"op": "leave"}, {"op": "leave"}, {"op": "leave"})
                # Upper bound: one batch that overshoots max_size by two.
                room = SIZES["max_size"] - session.network_size
                batch(*[{"op": "join"} for _ in range(room + 2)])
                assert session.network_size == SIZES["max_size"]
            finally:
                session.close()
            return seen

        single = verdicts("single")
        errors = [verdict for verdict in single if verdict[0] == "error"]
        assert errors == [
            ("error", "failed", "node 9000 is already active"),
            ("error", "failed", f"node {10**9} is not active"),
            ("error", "failed", "node 9002 is already active"),
            ("error", "failed", "node 9000 is not active"),
            ("error", "failed", "node 9003 is already active"),
            ("error", "failed", "network is at its lower size bound 200"),
            ("error", "failed", "network is at its maximum size 256"),
            ("error", "failed", "network is at its maximum size 256"),
        ]
        assert verdicts("shards=1") == single
        assert verdicts("shards=2") == single


SAMPLE_KEYS = {
    "node_id", "cluster_id", "shard", "is_byzantine", "messages", "rounds", "walk_hops",
}
BROADCAST_KEYS = {
    "origin_cluster", "origin_shard", "clusters_reached", "cluster_count",
    "nodes_reached", "coverage", "messages", "rounds",
}


class TestReadLane:
    """Reads are one implementation: same shape, same invisibility, every backend."""

    @on_every_backend
    def test_read_responses_have_one_shape(self, backend):
        session = make_session(backend, seed=6)
        try:
            shards = session.scenario.shards or 1
            pump(session, frames_from_ops(["join"] * 5))
            sample = session.execute({"op": "sample"})
            assert set(sample) == SAMPLE_KEYS
            assert 0 <= sample["shard"] < shards
            assert sample["messages"] > 0 and sample["rounds"] > 0 and sample["walk_hops"] > 0
            broadcast = session.execute({"op": "broadcast", "payload": "x"})
            assert set(broadcast) == BROADCAST_KEYS
            assert 0 <= broadcast["origin_shard"] < shards
            # No cluster is captured at tau=0.15, so the flood (and the
            # bridge into every other shard) reaches everyone.
            assert broadcast["coverage"] == 1.0
            assert broadcast["nodes_reached"] == session.network_size
            assert broadcast["messages"] >= session.network_size - broadcast["cluster_count"]
        finally:
            session.close()

    @on_every_backend
    def test_reads_see_the_last_collected_window(self, backend):
        """Collecting a window drops the read views: reads wait for the
        rebuild, and the rebuilt views hold the window's writes."""
        session = make_session(backend, seed=6)
        try:
            session.execute({"op": "sample"})
            assert session.read_model.fresh
            size = session.network_size
            pump(session, frames_from_ops(["join"] * 5), chunk=5)
            assert not session.read_model.fresh
            assert session.execute({"op": "broadcast"})["nodes_reached"] == size + 5
            assert session.read_model.fresh
        finally:
            session.close()

    @on_every_backend
    def test_reads_draw_from_their_own_stream(self, backend):
        """The read RNG is private: reads do not consume the write stream."""
        plain = make_session(backend, seed=31)
        mixed = make_session(backend, seed=31)
        try:
            frames = frames_from_ops(["join"] * 10 + ["leave"] * 4)
            plain_out = pump(plain, frames, chunk=4)
            mixed_out = []
            for frame in frames:
                mixed.execute({"op": "sample"})
                mixed_out.append(mixed.execute(frame))
            # Anonymous-leave picks agree despite the interleaved sampling.
            assert [normalise(o) for o in mixed_out] == [normalise(o) for o in plain_out]
        finally:
            plain.close()
            mixed.close()

    @on_every_backend
    def test_read_storm_between_write_windows_is_invisible(self, tmp_path, backend):
        """A storm of reads between (and under) two write windows moves
        neither a trace byte nor the state hash."""
        first = frames_from_ops(["join"] * 12 + ["leave"] * 4)
        second = frames_from_ops(["leave"] * 6 + ["byzantine-join"] * 6)

        def run(name: str, storm: int):
            path = str(tmp_path / f"{name}.jsonl")
            session = make_session(backend, seed=27)
            try:
                session.attach_trace(path, index_every=8)
                session.execute({"op": "sample"})  # views built: reads ride beside the window
                under = first + [{"op": "sample"}] * storm
                pump(session, under, chunk=len(under))
                between = [{"op": "broadcast" if i % 4 == 0 else "sample"} for i in range(storm)]
                pump(session, between, chunk=max(storm, 1))
                pump(session, second, chunk=len(second))
                state = session.state_hash()
            finally:
                session.close()
            with open(path, "rb") as handle:
                return state, handle.read()

        assert run("storm", storm=120) == run("quiet", storm=0)


class TestServedSessionReplays:
    def test_tcp_served_session_records_and_replays(self, tmp_path):
        def scenario(backend: str, path: str):
            session = make_session(backend, seed=4)
            session.attach_trace(path, index_every=10)
            frontend = ServiceFrontend(session, port=0)
            frontend.start()
            client = LoopClient(frontend)
            ops = (["join"] * 8 + ["sample"] * 6 + ["leave"] * 3 + ["broadcast"]) * 2
            frames = []
            for index, op in enumerate(ops):
                frame = {"op": op, "id": index}
                if op == "broadcast":
                    frame["payload"] = "hello"
                frames.append(frame)
            client.send(*frames)
            responses = client.answers(len(ops))
            client.close()
            recorded_hash = session.state_hash()
            frontend.stop()
            return session, responses, recorded_hash

        for backend in ("single", "shards=2"):
            path = str(tmp_path / f"{backend}.jsonl")
            session, responses, recorded_hash = scenario(backend, path)
            assert all(response["ok"] for response in responses)
            assert session.events_applied == 22  # 8 joins + 3 leaves, twice
            report = replay_trace(path)
            assert report.ok, report.divergence
            assert report.events_applied == session.events_applied
            assert report.final_hash == recorded_hash
