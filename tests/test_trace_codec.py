"""Tests for the binary trace codec, mixed-format tooling and checkpoint-from-trace.

The codec contract: a binary trace and a JSONL trace of the same run decode
to **identical frame sequences** (headers, events, index frames, end frame
— dict-for-dict), so every frame consumer (replay, trace-diff, resume,
checkpoint-from-trace) is format-agnostic for free.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Scenario
from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.scenarios.probes import Probe
from repro.trace import (
    Checkpoint,
    TraceDivergenceError,
    TraceReader,
    TraceWriter,
    checkpoint_from_trace,
    record_scenario,
    replay_trace,
    resume_from_checkpoint,
    sniff_trace_format,
    trace_diff,
)
from repro.trace.log import _CHECKS, _WORDS, FRAMES, _layout_fault, event_frame_from_record

PARAMS = dict(max_size=1024, initial_size=100, tau=0.1, k=2.0)


def small_scenario(seed=7, **overrides) -> Scenario:
    fields = dict(PARAMS)
    fields.update(overrides)
    return Scenario(name=fields.pop("name", "codec-test"), seed=seed, **fields)


def record(tmp_path, name, trace_format, seed=7, steps=50, index_every=10, flush_every=16, **overrides):
    path = os.path.join(str(tmp_path), name)
    session = record_scenario(
        small_scenario(seed=seed, steps=steps, **overrides),
        trace_path=path,
        index_every=index_every,
        trace_format=trace_format,
        flush_every=flush_every,
    )
    return path, session


#: One well-formed frame of each kind after the header.
GOOD_FRAMES = {
    "ev": {"t": "ev", "i": 12, "ts": 12, "k": "join", "r": "honest", "n": None, "c": None,
           "a": 212, "sz": 212, "cl": 8, "w": 0.1, "m": 123456, "rd": 77, "h": 0},
    "x": {"t": "x", "i": 12, "ts": 12, "ev": 12, "h": "ab", "sz": 212},
    "end": {"t": "end", "ev": 12, "h": "ab"},
}
DROP = object()


class TestFrameCheck:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(sorted(GOOD_FRAMES)),
        edits=st.lists(
            st.tuples(
                st.sampled_from(["t", "i", "ts", "k", "r", "n", "c", "a", "sz", "cl", "w", "m",
                                 "rd", "h", "ev", "zz"]),
                st.sampled_from([DROP, None, {}, [], "x", "ev", "join", "leave", "byzantine",
                                 0.5, 1.0, True, False, 0, 7, -1, 2**31, 2**32, 2**64,
                                 float("nan"), float("inf")]),
            ),
            max_size=3,
        ),
    )
    def test_the_check_built_once_agrees_with_the_field_checker(self, kind, edits):
        """A frame passes its kind's one-pass check exactly when the
        field-by-field layout check finds no fault in it."""
        frame = dict(GOOD_FRAMES[kind])
        for key, value in edits:
            if value is DROP:
                frame.pop(key, None)
            else:
                frame[key] = value
        assert _CHECKS[kind](frame) == (_layout_fault(frame, FRAMES[kind], _WORDS[kind]) is None)


class TestBinaryRoundTrip:
    # tmp_path is shared across generated examples; file names embed the
    # generated parameters and records open with "w", so reuse is safe.
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**16),
        steps=st.integers(5, 60),
        flush_every=st.integers(1, 64),
        walk_mode=st.sampled_from(["oracle", "simulated"]),
    )
    def test_binary_and_jsonl_decode_to_identical_frames(
        self, tmp_path, seed, steps, flush_every, walk_mode
    ):
        options = {"engine_options": {"walk_mode": walk_mode}}
        jsonl_path, _ = record(
            tmp_path, f"a-{seed}-{steps}.jsonl", "jsonl",
            seed=seed, steps=steps, flush_every=flush_every, **options,
        )
        binary_path, _ = record(
            tmp_path, f"b-{seed}-{steps}.bin", "binary",
            seed=seed, steps=steps, flush_every=flush_every, **options,
        )
        jsonl = TraceReader(jsonl_path)
        binary = TraceReader(binary_path)
        assert jsonl.trace_format == "jsonl"
        assert binary.trace_format == "binary"
        # Identical frame sequences — headers, events, index frames, end.
        assert jsonl.frames == binary.frames
        # Identical state-hash index frames, spelled out.
        assert [frame["h"] for frame in jsonl.index_frames()] == [
            frame["h"] for frame in binary.index_frames()
        ]
        assert jsonl.end_frame() == binary.end_frame()

    def test_binary_traces_replay_with_zero_divergence(self, tmp_path):
        path, session = record(tmp_path, "run.bin", "binary", steps=60)
        report = replay_trace(path)
        assert report.ok, report.summary()
        assert report.events_applied == session.result.events
        assert report.final_hash == session.final_state_hash

    def test_binary_is_smaller_than_jsonl(self, tmp_path):
        jsonl_path, _ = record(tmp_path, "a.jsonl", "jsonl", steps=80, flush_every=256)
        binary_path, _ = record(tmp_path, "b.bin", "binary", steps=80, flush_every=256)
        assert os.path.getsize(binary_path) * 2 < os.path.getsize(jsonl_path)

    def test_sniffing(self, tmp_path):
        jsonl_path, _ = record(tmp_path, "a.jsonl", "jsonl", steps=5)
        binary_path, _ = record(tmp_path, "b.bin", "binary", steps=5)
        assert sniff_trace_format(jsonl_path) == "jsonl"
        assert sniff_trace_format(binary_path) == "binary"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            TraceWriter(os.path.join(str(tmp_path), "x.trace"), trace_format="msgpack")

    def test_flush_cadence_rejected_below_one(self, tmp_path):
        with pytest.raises(ConfigurationError):
            TraceWriter(os.path.join(str(tmp_path), "x.trace"), flush_every=0)


class TestBinaryTruncation:
    def test_reader_tolerates_truncated_tail(self, tmp_path):
        path, _ = record(tmp_path, "run.bin", "binary", steps=60, flush_every=8)
        with open(path, "rb") as handle:
            content = handle.read()
        cut = os.path.join(str(tmp_path), "cut.bin")
        with open(cut, "wb") as handle:
            handle.write(content[: int(len(content) * 0.7)])  # kill mid-block
        reader = TraceReader(cut)
        assert reader.trace_format == "binary"
        assert reader.event_count() > 0
        assert reader.end_frame() is None
        # The surviving prefix still replays and verifies.
        assert replay_trace(cut).ok

    def test_corrupt_block_drops_tail_only(self, tmp_path):
        path, _ = record(tmp_path, "run.bin", "binary", steps=40, flush_every=8)
        with open(path, "rb") as handle:
            content = bytearray(handle.read())
        # Flip bytes near the end: the final block fails to decompress, the
        # prefix survives.
        content[-10:] = b"\xff" * 10
        bad = os.path.join(str(tmp_path), "bad.bin")
        with open(bad, "wb") as handle:
            handle.write(bytes(content))
        reader = TraceReader(bad)
        assert 0 < reader.event_count() <= 40


class TestInterruptedRecording:
    def test_buffered_frames_survive_a_mid_run_crash(self, tmp_path):
        from repro.scenarios import CallbackProbe

        class Boom(RuntimeError):
            pass

        def explode(engine, report, step_index):
            if step_index == 37:
                raise Boom()

        path = os.path.join(str(tmp_path), "crash.bin")
        with pytest.raises(Boom):
            record_scenario(
                small_scenario(steps=100),
                trace_path=path,
                index_every=1000,  # no index-frame flush before the crash
                trace_format="binary",
                flush_every=1000,  # everything rides the write buffer
                probes=[CallbackProbe(explode, name="boom")],
            )
        # abort() flushed the buffered tail: the trace is complete to the
        # interrupt point (36 applied events) and has no end frame.
        reader = TraceReader(path)
        assert reader.event_count() == 36
        assert reader.end_frame() is None
        assert replay_trace(path).ok


class TestMixedFormatDiff:
    def test_identical_runs_in_different_formats_do_not_diverge(self, tmp_path):
        jsonl_path, _ = record(tmp_path, "a.jsonl", "jsonl", steps=50)
        binary_path, _ = record(tmp_path, "b.bin", "binary", steps=50)
        diff = trace_diff(jsonl_path, binary_path)
        assert not diff.diverged, diff.summary()
        assert diff.compared_events == 50
        assert "headers record different scenarios" not in diff.notes

    def test_mixed_format_diff_still_pinpoints_divergence(self, tmp_path):
        jsonl_path, _ = record(tmp_path, "a.jsonl", "jsonl", steps=50, seed=7)
        binary_path, _ = record(tmp_path, "b.bin", "binary", steps=50, seed=8)
        diff = trace_diff(jsonl_path, binary_path)
        assert diff.diverged
        assert diff.step == 1

    def test_mixed_format_diff_cli_exit_codes(self, tmp_path, capsys):
        jsonl_path, _ = record(tmp_path, "a.jsonl", "jsonl", steps=30)
        binary_path, _ = record(tmp_path, "b.bin", "binary", steps=30)
        assert cli_main(["trace-diff", jsonl_path, binary_path]) == 0
        assert "traces agree" in capsys.readouterr().out


#: backend name -> (scenario overrides, worker processes), as in
#: ``tests/test_batch_sessions.py``: frequent barriers that move nodes, so a
#: checkpoint cut that misplaced one would change the state hash.
SHARDED = dict(
    max_size=256,
    initial_size=200,
    shards=4,
    shard_options={"barrier_interval": 16, "rebalance_threshold": 1},
)
BACKENDS = {
    "single": ({}, 1),
    "shards4-w1": (SHARDED, 1),
    "shards4-w2": (SHARDED, 2),
}

on_every_backend = pytest.mark.parametrize("backend", list(BACKENDS))


def record_on(tmp_path, backend, name="run.jsonl", trace_format="jsonl", steps=60, index_every=10):
    """Record ``steps`` of the backend's scenario; ``(path, session)``."""
    overrides, workers = BACKENDS[backend]
    path = os.path.join(str(tmp_path), name)
    session = record_scenario(
        small_scenario(steps=steps, **overrides),
        trace_path=path,
        index_every=index_every,
        trace_format=trace_format,
        workers=workers,
    )
    return path, session


def rewrite_frames(path, out_path, edit):
    """Copy a JSONL trace, passing every frame through ``edit(frame)``."""
    import json

    with open(path, "r", encoding="utf-8") as source, open(out_path, "w", encoding="utf-8") as out:
        for line in source:
            frame = json.loads(line)
            edit(frame)
            out.write(json.dumps(frame, sort_keys=True, separators=(",", ":")) + "\n")
    return out_path


class _Tail(Probe):
    """Collects the event frames a (resumed) run would have written."""

    name = "tail"
    inline = False

    def __init__(self):
        self.frames = []

    def on_records(self, engine, records):
        self.frames += [event_frame_from_record(record) for record in records]


class TestCheckpointFromTrace:
    """Any recorded batch trace, single-engine or sharded, is a library of
    verified resume points — one re-drive through the driver seam."""

    @on_every_backend
    def test_resuming_matches_uninterrupted_run(self, tmp_path, backend):
        path, straight = record_on(tmp_path, backend)
        checkpoint_path = os.path.join(str(tmp_path), "mid.ckpt.json")
        # Step 25 is off the index cadence (10) and the barrier grid (16).
        result = checkpoint_from_trace(path, to_step=25, checkpoint_path=checkpoint_path)
        assert result.steps_done == 25
        assert result.verified_events == 25
        assert result.hash_checks > 0
        checkpoint = Checkpoint.load(checkpoint_path)
        assert checkpoint.steps_done == 25
        assert checkpoint.data.get("engine_kind", "now") == TraceReader(path).header["engine"]
        tail = _Tail()
        resumed = resume_from_checkpoint(
            checkpoint_path, probes=[tail], workers=BACKENDS[backend][1]
        )
        assert resumed.final_state_hash == straight.final_state_hash
        # The resumed segment is the straight run's trace tail, event for
        # event (a resumed single-engine run counts its steps from 1 again).
        recorded = [frame for frame in TraceReader(path).events() if frame["i"] > 25]
        assert [dict(frame, i=0) for frame in tail.frames] == [
            dict(frame, i=0) for frame in recorded
        ]

    def test_works_from_binary_traces_and_simulated_mode(self, tmp_path):
        options = {"engine_options": {"walk_mode": "simulated"}}
        straight = record_scenario(small_scenario(seed=11, steps=40, **options))
        path, _ = record(tmp_path, "run.bin", "binary", seed=11, steps=40, **options)
        checkpoint_path = os.path.join(str(tmp_path), "mid.ckpt.json")
        checkpoint_from_trace(path, to_step=15, checkpoint_path=checkpoint_path)
        resumed = resume_from_checkpoint(checkpoint_path)
        assert resumed.final_state_hash == straight.final_state_hash

    @on_every_backend
    def test_every_recorded_step_is_a_resume_point(self, tmp_path, backend):
        path, straight = record_on(tmp_path, backend, "run.bin", "binary", steps=40)
        # First step, on a barrier, just past one, last step.
        for to_step in (1, 16, 33, 40):
            checkpoint_path = os.path.join(str(tmp_path), f"at-{to_step}.ckpt.json")
            checkpoint_from_trace(path, to_step=to_step, checkpoint_path=checkpoint_path)
            resumed = resume_from_checkpoint(checkpoint_path)
            assert resumed.final_state_hash == straight.final_state_hash, to_step

    @on_every_backend
    def test_rejects_step_beyond_the_trace(self, tmp_path, backend):
        path, _ = record_on(tmp_path, backend, steps=20)
        with pytest.raises(ConfigurationError, match="beyond the last recorded event"):
            checkpoint_from_trace(
                path, to_step=999, checkpoint_path=os.path.join(str(tmp_path), "x.json")
            )

    @on_every_backend
    @pytest.mark.parametrize(
        "field, value",
        [pytest.param("ev", 1, id="count"), pytest.param("h", "0" * 64, id="hash")],
    )
    def test_rejects_inconsistent_index_frame(self, tmp_path, backend, field, value):
        path, _ = record_on(tmp_path, backend, steps=50)
        target = TraceReader(path).index_frames()[1]["i"]

        def edit(frame):
            if frame["t"] == "x" and frame["i"] == target:
                frame[field] = value  # the count, or the hash, disagrees

        bad = rewrite_frames(path, os.path.join(str(tmp_path), "bad-index.jsonl"), edit)
        checkpoint_path = os.path.join(str(tmp_path), "x.json")
        # Fail-loud: an index frame that disagrees with the re-driven run is
        # a divergence, never a silently skipped hash check.
        with pytest.raises(TraceDivergenceError, match="index frame inconsistent"):
            checkpoint_from_trace(bad, to_step=50, checkpoint_path=checkpoint_path)
        assert not os.path.exists(checkpoint_path)

    @on_every_backend
    def test_rejects_tampered_trace(self, tmp_path, backend):
        path, _ = record_on(tmp_path, backend, steps=30)

        def edit(frame):
            if frame["t"] == "ev" and frame["i"] == 10:
                frame["sz"] += 1

        bad = rewrite_frames(path, os.path.join(str(tmp_path), "bad.jsonl"), edit)
        checkpoint_path = os.path.join(str(tmp_path), "x.json")
        with pytest.raises(TraceDivergenceError, match="diverged .* step 10"):
            checkpoint_from_trace(bad, to_step=30, checkpoint_path=checkpoint_path)
        assert not os.path.exists(checkpoint_path)


class TestBinaryCli:
    def test_record_replay_resume_round_trip(self, tmp_path, capsys):
        trace = os.path.join(str(tmp_path), "run.bin")
        assert cli_main([
            "run-scenario", "--name", "uniform-churn", "--steps", "40",
            "--record", trace, "--trace-format", "binary",
            "--flush-every", "16", "--index-every", "10",
        ]) == 0
        capsys.readouterr()
        assert sniff_trace_format(trace) == "binary"
        assert TraceReader(trace).event_count() == 40

        assert cli_main(["replay", "--trace", trace]) == 0
        assert "replay OK" in capsys.readouterr().out

        checkpoint = os.path.join(str(tmp_path), "mid.ckpt.json")
        assert cli_main([
            "replay", "--trace", trace, "--to-step", "20", "--checkpoint", checkpoint,
        ]) == 0
        assert "checkpoint written" in capsys.readouterr().out
        assert cli_main(["resume", "--checkpoint", checkpoint, "--steps", "20"]) == 0

    def test_to_step_requires_checkpoint(self, tmp_path, capsys):
        trace = os.path.join(str(tmp_path), "run.jsonl")
        assert cli_main([
            "run-scenario", "--name", "uniform-churn", "--steps", "10", "--record", trace,
        ]) == 0
        capsys.readouterr()
        assert cli_main(["replay", "--trace", trace, "--to-step", "5"]) == 2
        assert "must be given together" in capsys.readouterr().err
