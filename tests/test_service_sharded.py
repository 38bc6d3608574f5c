"""The sharded backend's own cases: worker-count equivalence, deferred
reads, worker death, shard-only admission.

Everything a session promises on *every* backend lives in the contract suite
(``tests/test_service_replay.py``).  What is left here is specific to the
shard coordinator: responses, recorded trace and composite state hash are
independent of the worker-process count (``workers=1`` is the inline
oracle), the single engine is the oracle for the writes' responses, and
a worker dying under load fails loudly.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.service import LiveEngineSession, live_scenario
from repro.service.frontend import ServiceFrontend
from repro.service.protocol import ProtocolError
from repro.shard import ShardWorkerError
from repro.shard.messages import cluster_address
from repro.shard.worker import ProcessTransport
from repro.trace import TraceReader, replay_trace

from service_helpers import SIZES, LoopClient, frames_from_ops, normalise, pump


def make_session(seed: int = 9, workers: int = 1, **overrides) -> LiveEngineSession:
    params = dict(SIZES)
    params.update(overrides)
    return LiveEngineSession(live_scenario(seed=seed, shards=4, **params), workers=workers)


# The op alphabet the equivalence property draws request streams from.
OPS = st.sampled_from(
    ["join", "join", "byzantine-join", "leave", "sample", "status", "broadcast"]
)


class TestWorkerCountEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(ops=st.lists(OPS, min_size=1, max_size=40), seed=st.integers(1, 50))
    def test_responses_trace_and_hash_identical_across_worker_counts(
        self, tmp_path_factory, ops, seed
    ):
        """W in {1, 2, 4}: same requests -> same bits, W=1 is the oracle."""
        frames = frames_from_ops(ops)
        results = {}
        for workers in (1, 2, 4):
            path = str(
                tmp_path_factory.mktemp("eq") / f"w{workers}.jsonl"
            )
            session = make_session(seed=seed, workers=workers)
            try:
                session.attach_trace(path, index_every=10)
                outcomes = pump(session, frames, chunk=8)
                state = session.state_hash()
            finally:
                session.close()
            with open(path, "rb") as handle:
                results[workers] = (
                    [normalise(o) for o in outcomes],
                    state,
                    handle.read(),
                )
        assert results[2] == results[1]
        assert results[4] == results[1]

    def test_writes_match_classic_single_engine_session(self):
        """The classic session is the oracle for the write lane's responses.

        Joins and leaves (anonymous ones included — both backends draw the
        leaver from the same ``seed + 4`` stream over the same registry
        sampling array) must agree on the assigned node, the time step and
        the network size.  Cluster observables legitimately differ: shard
        engines partition the population.
        """
        frames = frames_from_ops(
            ["join"] * 40 + ["leave", "join", "leave", "byzantine-join"] * 10
        )
        classic = LiveEngineSession(live_scenario(seed=11, **SIZES))
        assert not classic.scenario.shards
        expected = []
        for frame in frames:
            result = classic.execute(frame)
            expected.append(
                (result["node_id"], result["time_step"], result["network_size"])
            )
        classic.close()

        session = make_session(seed=11)
        try:
            outcomes = pump(session, frames, chunk=16)
        finally:
            session.close()
        got = [(o["node_id"], o["time_step"], o["network_size"]) for o in outcomes]
        assert got == expected


class TestReadLane:
    def test_status_serves_during_inflight_window_sample_defers(self):
        """status/ping never block on a window; a stale model defers sample."""
        session = make_session(seed=5)
        frames = [{"op": "join", "id": i} for i in range(6)]
        frames += [{"op": op, "id": op} for op in ("sample", "status", "broadcast", "ping")]
        answered = {}

        def answer(index, outcome):
            answered[frames[index]["id"]] = outcome

        try:
            session.serve(frames, answer)
            # Window dispatched, not collected: status and ping are answered
            # beside it; the stale model defers sample and broadcast past the
            # joins, to the boundary (one worker round trip).
            assert list(answered) == ["status", "ping", *range(6), "sample", "broadcast"]
            assert answered["status"]["network_size"] == SIZES["initial_size"] + 6
            assert answered["sample"]["messages"] > 0 and answered["sample"]["rounds"] > 0
            assert session.read_model.fresh
        finally:
            session.close()


class TestShardedSessionValidation:
    def test_rejects_scenario_with_workload(self):
        for shards in (0, 4):
            scenario = live_scenario(seed=1, shards=shards, **SIZES)
            scenario.workload = {"kind": "uniform"}
            with pytest.raises(ConfigurationError, match="workload"):
                LiveEngineSession(scenario)

    def test_join_at_max_size_fails_cleanly(self):
        session = make_session(seed=2, initial_size=240, max_size=256)
        try:
            outcomes = pump(session, [{"op": "join", "id": i} for i in range(40)])
            errors = [o for o in outcomes if isinstance(o, ProtocolError)]
            applied = [o for o in outcomes if not isinstance(o, ProtocolError)]
            assert len(applied) == 16 and len(errors) == 24
            assert all(e.code == "failed" for e in errors)
            assert session.network_size == 256
        finally:
            session.close()

    def test_contact_cluster_join_goes_to_the_sampled_clusters_shard(self):
        """``sample`` names a cluster by its composite name; a join contacting
        it lands on that cluster's shard and records the name."""
        session = make_session(seed=2)
        try:
            shards = session.scenario.shards
            for _ in range(6):
                sampled = session.execute({"op": "sample"})
                shard, _local = cluster_address(sampled["cluster_id"], shards)
                assert shard == sampled["shard"]
                joined = session.execute({"op": "join", "contact_cluster": sampled["cluster_id"]})
                assert session.driver.directory.owner[joined["node_id"]] == shard
        finally:
            session.close()

    def test_named_leave_then_rejoin_round_trip(self):
        session = make_session(seed=2)
        try:
            joined = session.execute({"op": "join"})
            gone = session.execute({"op": "leave", "node_id": joined["node_id"]})
            assert gone["node_id"] == joined["node_id"]
            with pytest.raises(ProtocolError, match="not active"):
                session.execute({"op": "leave", "node_id": joined["node_id"]})
            back = session.execute({"op": "join", "node_id": joined["node_id"]})
            assert back["node_id"] == joined["node_id"]
        finally:
            session.close()


class TestServeTraceReplay:
    def test_recorded_sharded_serve_trace_replays_bit_identically(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        session = make_session(seed=13, workers=2)
        try:
            session.attach_trace(path, index_every=20)
            pump(
                session,
                frames_from_ops(
                    ["join"] * 50 + ["leave"] * 20 + ["sample"] * 5 + ["join"] * 30
                ),
                chunk=16,
            )
            applied = session.events_applied
            recorded_hash = session.state_hash()
        finally:
            session.close()

        report = replay_trace(path)
        assert report.ok
        assert applied > 90  # a handful of tail joins rejected at max_size
        assert report.events_applied == applied
        assert report.hash_checks >= 1
        assert report.final_hash == recorded_hash

    def test_replay_detects_tampered_event(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        session = make_session(seed=13)
        try:
            session.attach_trace(path)
            pump(session, frames_from_ops(["join"] * 20))
        finally:
            session.close()
        lines = open(path, "r", encoding="utf-8").read().splitlines()
        frame = json.loads(lines[3])
        assert frame["t"] == "ev"
        frame["sz"] += 1  # a recorded observable the replay must re-derive
        lines[3] = json.dumps(frame)
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        report = replay_trace(path)
        assert not report.ok and report.divergence is not None


class TestWorkerDeath:
    def test_worker_dying_mid_load_fails_requests_and_seals_trace(self, tmp_path):
        """Kill a worker under live load: every in-flight request is answered
        with error code ``failed`` (never a hung connection), the trace is
        sealed crashed-shape, and the frontend's stop re-raises the death."""
        path = str(tmp_path / "crash.jsonl")
        session = make_session(seed=17, workers=2)
        session.attach_trace(path)
        frontend = ServiceFrontend(session, port=0)
        frontend.start()
        client = LoopClient(frontend)
        # Prove the service is healthy, then kill one worker process.
        first = client.rpc({"op": "join", "id": "warm"})
        assert first["ok"]
        transport = session.driver._transports[0]
        assert isinstance(transport, ProcessTransport)
        transport._process.kill()
        transport._process.join(timeout=5)
        # Requests racing the death must all be *answered*.
        client.send(*({"op": "join", "id": index} for index in range(12)))
        responses = client.answers(12)
        failed = [r for r in responses if not r["ok"]]
        assert failed, "worker death produced no failed responses"
        assert all(r["error"] in ("failed", "shutting_down") for r in failed)
        client.close()
        with pytest.raises(ShardWorkerError):
            frontend.stop()
        assert session.closed
        # The crash path flushes but writes no end frame: the crashed-run
        # shape replay tolerates up to the last complete frame.
        trace = TraceReader(path)
        assert trace.end_frame() is None
        assert replay_trace(path).ok
