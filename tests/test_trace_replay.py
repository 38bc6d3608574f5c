"""Tests for the trace log, replay verification and trace diffing."""

from __future__ import annotations

import json
import os

import pytest

from repro import Scenario
from repro.core.events import ChurnKind
from repro.errors import ConfigurationError
from repro.network.node import NodeRole
from repro.scenarios import CorruptionTrajectoryProbe
from repro.cli import main as cli_main
from repro.trace import (
    ReplayEngine,
    TraceReader,
    churn_event_from_frame,
    record_scenario,
    replay_trace,
    state_hash,
    trace_diff,
)

PARAMS = dict(max_size=1024, initial_size=100, tau=0.1, k=2.0, seed=7)


def small_scenario(**overrides) -> Scenario:
    fields = dict(PARAMS)
    fields.update(overrides)
    return Scenario(name=fields.pop("name", "trace-test"), **fields)


def record(tmp_path, name="run.jsonl", index_every=20, probes=(), **overrides):
    scenario = small_scenario(**overrides)
    path = os.path.join(str(tmp_path), name)
    session = record_scenario(
        scenario, trace_path=path, index_every=index_every, probes=list(probes)
    )
    return path, session


class TestTraceLog:
    def test_trace_structure(self, tmp_path):
        path, session = record(tmp_path, steps=50, index_every=10)
        reader = TraceReader(path)
        assert reader.header["f"] == "repro-trace"
        assert reader.scenario["seed"] == PARAMS["seed"]
        assert reader.event_count() == session.result.events
        assert len(reader.index_frames()) == session.result.events // 10
        end = reader.end_frame()
        assert end is not None
        assert end["h"] == session.final_state_hash

    def test_event_frames_carry_input_event_and_observables(self, tmp_path):
        path, _ = record(tmp_path, steps=30)
        for frame in TraceReader(path).events():
            event = churn_event_from_frame(frame)
            assert event.kind in (ChurnKind.JOIN, ChurnKind.LEAVE)
            assert event.role in (NodeRole.HONEST, NodeRole.BYZANTINE)
            assert frame["sz"] > 0 and frame["cl"] > 0
            assert 0.0 <= frame["w"] <= 1.0

    def test_reader_tolerates_truncated_tail(self, tmp_path):
        path, _ = record(tmp_path, steps=30)
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read()
        cut = os.path.join(str(tmp_path), "cut.jsonl")
        with open(cut, "w", encoding="utf-8") as handle:
            handle.write(content[: int(len(content) * 0.7)])  # kill mid-line
        reader = TraceReader(cut)
        assert reader.event_count() > 0
        assert reader.end_frame() is None
        # The surviving prefix still replays and verifies.
        assert replay_trace(cut).ok

    def test_reader_rejects_non_trace_files(self, tmp_path):
        path = os.path.join(str(tmp_path), "bogus.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"t":"nope"}\n')
        with pytest.raises(ConfigurationError):
            TraceReader(path)
        with pytest.raises(ConfigurationError):
            TraceReader(os.path.join(str(tmp_path), "missing.jsonl"))


class TestReplay:
    def test_record_then_replay_verifies_and_matches_final_hash(self, tmp_path):
        path, session = record(tmp_path, steps=80, index_every=15)
        report = replay_trace(path)
        assert report.ok, report.summary()
        assert report.events_applied == session.result.events
        assert report.hash_checks == session.result.events // 15
        assert report.final_hash == session.final_state_hash
        assert report.recorded_final_hash == session.final_state_hash

    def test_probe_outputs_are_bit_identical_across_recordings(self, tmp_path):
        probe_a = CorruptionTrajectoryProbe()
        path_a, _ = record(tmp_path, name="a.jsonl", steps=60, probes=[probe_a])
        probe_b = CorruptionTrajectoryProbe()
        path_b, _ = record(tmp_path, name="b.jsonl", steps=60, probes=[probe_b])
        assert probe_a.result() == probe_b.result()
        assert not trace_diff(path_a, path_b).diverged

    def test_replay_works_for_adversarial_and_simulated_runs(self, tmp_path):
        path, _ = record(
            tmp_path,
            name="adv.jsonl",
            steps=60,
            tau=0.2,
            adversary={"kind": "join_leave", "target_cluster": "first"},
            adversary_weight=0.5,
        )
        assert replay_trace(path).ok
        path, _ = record(
            tmp_path,
            name="sim.jsonl",
            steps=40,
            engine_options={"walk_mode": "simulated"},
        )
        assert replay_trace(path).ok

    def test_replay_detects_tampered_event(self, tmp_path):
        path, _ = record(tmp_path, steps=40, index_every=10)
        lines = open(path, "r", encoding="utf-8").read().splitlines()
        tampered = []
        for line in lines:
            frame = json.loads(line)
            if frame.get("t") == "ev" and frame["i"] == 20:
                frame["sz"] += 1  # corrupt one recorded observable
            tampered.append(json.dumps(frame, sort_keys=True, separators=(",", ":")))
        bad = os.path.join(str(tmp_path), "tampered.jsonl")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write("\n".join(tampered) + "\n")
        report = replay_trace(bad)
        assert not report.ok
        assert report.divergence["step"] == 20
        assert "network size" in report.divergence["reason"]

    def test_replay_checks_operation_rounds(self, tmp_path):
        path, _ = record(tmp_path, steps=20, index_every=1000)
        lines = open(path, "r", encoding="utf-8").read().splitlines()
        tampered = []
        for line in lines:
            frame = json.loads(line)
            if frame.get("t") == "ev" and frame["i"] == 7:
                frame["rd"] += 1
            tampered.append(json.dumps(frame, sort_keys=True, separators=(",", ":")))
        bad = os.path.join(str(tmp_path), "rounds.jsonl")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write("\n".join(tampered) + "\n")
        report = replay_trace(bad)
        assert not report.ok
        assert report.divergence["step"] == 7
        assert "operation rounds" in report.divergence["reason"]

    def test_replay_reports_the_first_of_two_divergences(self, tmp_path):
        path, _ = record(tmp_path, steps=40, index_every=1000)
        lines = open(path, "r", encoding="utf-8").read().splitlines()
        tampered = []
        for line in lines:
            frame = json.loads(line)
            if frame.get("t") == "ev" and frame["i"] in (10, 25):
                frame["sz"] += 1
            tampered.append(json.dumps(frame, sort_keys=True, separators=(",", ":")))
        bad = os.path.join(str(tmp_path), "two-tampers.jsonl")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write("\n".join(tampered) + "\n")
        report = replay_trace(bad)
        assert not report.ok
        assert report.divergence["step"] == 10  # the FIRST mismatch, not the last

    def test_replay_detects_hash_mismatch_from_tampered_index(self, tmp_path):
        path, _ = record(tmp_path, steps=40, index_every=10)
        lines = open(path, "r", encoding="utf-8").read().splitlines()
        tampered = []
        for line in lines:
            frame = json.loads(line)
            if frame.get("t") == "x":
                frame["h"] = "0" * 64
            tampered.append(json.dumps(frame, sort_keys=True, separators=(",", ":")))
        bad = os.path.join(str(tmp_path), "badhash.jsonl")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write("\n".join(tampered) + "\n")
        report = replay_trace(bad)
        assert not report.ok
        assert "state hash mismatch" in report.divergence["reason"]

    def test_replay_refuses_a_header_without_scenario(self, tmp_path, capsys):
        path, _ = record(tmp_path, steps=10, index_every=5)
        frames = [json.loads(line) for line in open(path, "r", encoding="utf-8")]
        frames[0]["scenario"] = None  # what no writer produces any more
        bare = os.path.join(str(tmp_path), "bare.jsonl")
        with open(bare, "w", encoding="utf-8") as handle:
            handle.write("".join(json.dumps(frame) + "\n" for frame in frames))
        with pytest.raises(ConfigurationError, match="no scenario"):
            ReplayEngine(bare)
        assert cli_main(["replay", "--trace", bare]) == 2
        assert "no scenario" in capsys.readouterr().err


class TestTraceDiff:
    def test_identical_runs_do_not_diverge(self, tmp_path):
        path_a, _ = record(tmp_path, name="a.jsonl", steps=50)
        path_b, _ = record(tmp_path, name="b.jsonl", steps=50)
        diff = trace_diff(path_a, path_b)
        assert not diff.diverged
        assert diff.compared_events == 50

    def test_different_seeds_diverge_at_first_event(self, tmp_path):
        path_a, _ = record(tmp_path, name="a.jsonl", steps=50)
        path_b, _ = record(tmp_path, name="b.jsonl", steps=50, seed=8)
        diff = trace_diff(path_a, path_b)
        assert diff.diverged
        assert diff.step == 1
        assert "headers record different scenarios" in diff.notes

    def test_length_mismatch_reports_first_extra_event(self, tmp_path):
        path_a, _ = record(tmp_path, name="a.jsonl", steps=50)
        path_b, _ = record(tmp_path, name="b.jsonl", steps=30)
        diff = trace_diff(path_a, path_b)
        assert diff.diverged
        assert "event counts differ" in diff.reason
        assert diff.compared_events == 30

    def test_state_hash_of_equal_engines_is_equal(self):
        scenario = small_scenario(steps=0)
        assert state_hash(scenario.build_engine()) == state_hash(scenario.build_engine())
