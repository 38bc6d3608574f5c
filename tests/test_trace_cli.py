"""CLI tests for the trace subsystem: record, resume, replay, trace-diff."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.scenarios import named_scenario
from repro.trace import Checkpoint, TraceReader, record_scenario


def run_cli(*argv):
    return main(list(argv))


class TestRecordAndReplayCli:
    def test_record_replay_round_trip(self, tmp_path, capsys):
        trace = os.path.join(str(tmp_path), "run.jsonl")
        code = run_cli(
            "run-scenario", "--name", "uniform-churn", "--steps", "40",
            "--record", trace, "--index-every", "10",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final state hash:" in out
        assert TraceReader(trace).event_count() == 40

        assert run_cli("replay", "--trace", trace) == 0
        out = capsys.readouterr().out
        assert "replay OK" in out

    def test_replay_exits_nonzero_on_divergence(self, tmp_path, capsys):
        trace = os.path.join(str(tmp_path), "run.jsonl")
        assert run_cli(
            "run-scenario", "--name", "uniform-churn", "--steps", "30",
            "--record", trace, "--index-every", "10",
        ) == 0
        capsys.readouterr()
        lines = open(trace, "r", encoding="utf-8").read().splitlines()
        tampered = []
        for line in lines:
            frame = json.loads(line)
            if frame.get("t") == "ev" and frame["i"] == 5:
                frame["w"] = 0.999
            tampered.append(json.dumps(frame, sort_keys=True, separators=(",", ":")))
        with open(trace, "w", encoding="utf-8") as handle:
            handle.write("\n".join(tampered) + "\n")
        assert run_cli("replay", "--trace", trace) == 1
        assert "DIVERGED" in capsys.readouterr().out

    @pytest.mark.parametrize("shards", [[], ["--shards", "2"]], ids=["single", "sharded"])
    def test_refused_step_count_leaves_the_trace_intact(self, tmp_path, capsys, shards):
        """A negative step budget is refused before the trace file is opened."""
        trace = os.path.join(str(tmp_path), "run.jsonl")
        record = ["run-scenario", "--name", "uniform-churn", "--record", trace]
        assert run_cli(*record, "--steps", "30") == 0
        before = open(trace, "rb").read()
        capsys.readouterr()
        assert run_cli(*record, "--steps", "-1", *shards) == 2
        assert "non-negative" in capsys.readouterr().err
        assert open(trace, "rb").read() == before
        assert run_cli("replay", "--trace", trace) == 0
        assert "replay OK: 30 events" in capsys.readouterr().out

    def test_checkpoint_cadence_without_a_file_is_usage_error(self, capsys):
        argv = ["run-scenario", "--name", "uniform-churn", "--steps", "5"]
        assert run_cli(*argv, "--checkpoint-every", "2") == 2
        err = capsys.readouterr().err
        assert "--checkpoint-every" in err and "--checkpoint " in err
        with pytest.raises(ConfigurationError, match="checkpoint_path"):
            record_scenario(named_scenario("uniform-churn"), steps=5, checkpoint_every=2)

    def test_replay_missing_file_is_usage_error(self, tmp_path, capsys):
        assert run_cli("replay", "--trace", os.path.join(str(tmp_path), "no.jsonl")) == 2
        assert "replay:" in capsys.readouterr().err


class TestResumeCli:
    def test_checkpoint_then_resume_matches_straight_run(self, tmp_path, capsys):
        straight_trace = os.path.join(str(tmp_path), "straight.jsonl")
        assert run_cli(
            "run-scenario", "--name", "uniform-churn", "--steps", "60",
            "--record", straight_trace,
        ) == 0
        straight_out = capsys.readouterr().out
        straight_hash = [
            line for line in straight_out.splitlines() if "final state hash" in line
        ][0].split()[-1]

        checkpoint = os.path.join(str(tmp_path), "part.ckpt.json")
        assert run_cli(
            "run-scenario", "--name", "uniform-churn", "--steps", "25",
            "--checkpoint", checkpoint, "--checkpoint-every", "1000",
        ) == 0
        capsys.readouterr()
        assert run_cli("resume", "--checkpoint", checkpoint, "--steps", "35") == 0
        resume_out = capsys.readouterr().out
        resumed_hash = [
            line for line in resume_out.splitlines() if "final state hash" in line
        ][0].split()[-1]
        assert resumed_hash == straight_hash

    def test_resume_missing_checkpoint_is_usage_error(self, tmp_path, capsys):
        assert run_cli("resume", "--checkpoint", os.path.join(str(tmp_path), "no.json")) == 2
        assert "resume:" in capsys.readouterr().err

    def test_checkpoint_file_records_progress(self, tmp_path, capsys):
        checkpoint = os.path.join(str(tmp_path), "c.json")
        assert run_cli(
            "run-scenario", "--name", "uniform-churn", "--steps", "20",
            "--checkpoint", checkpoint, "--checkpoint-every", "7",
        ) == 0
        capsys.readouterr()
        assert Checkpoint.load(checkpoint).steps_done == 20


class TestTraceDiffCli:
    def test_identical_traces_exit_zero(self, tmp_path, capsys):
        a = os.path.join(str(tmp_path), "a.jsonl")
        b = os.path.join(str(tmp_path), "b.jsonl")
        for path in (a, b):
            assert run_cli(
                "run-scenario", "--name", "uniform-churn", "--steps", "30",
                "--record", path,
            ) == 0
        capsys.readouterr()
        assert run_cli("trace-diff", a, b) == 0
        assert "traces agree" in capsys.readouterr().out

    def test_diverging_traces_exit_one_and_name_the_step(self, tmp_path, capsys):
        a = os.path.join(str(tmp_path), "a.jsonl")
        b = os.path.join(str(tmp_path), "b.jsonl")
        assert run_cli(
            "run-scenario", "--name", "uniform-churn", "--steps", "30", "--record", a,
        ) == 0
        assert run_cli(
            "--seed", "2", "run-scenario", "--name", "uniform-churn", "--steps", "30",
            "--record", b,
        ) == 0
        capsys.readouterr()
        assert run_cli("trace-diff", a, b) == 1
        assert "first divergence at step" in capsys.readouterr().out


def _final_hash(out: str) -> str:
    (line,) = [line for line in out.splitlines() if line.startswith("final state hash")]
    return line


class TestCheckpointFromTraceCli:
    """`replay --to-step N --checkpoint F` on every batch backend: a verified
    resume point (exit 0), a divergence (exit 1) or a usage error (exit 2) —
    the same messages and codes whether the trace is single-engine or sharded."""

    #: backend -> (`run-scenario` arguments, `resume` arguments): resume runs
    #: on a different worker count than the recording.
    BACKENDS = {
        "single": ([], []),
        "shards4-w1": (["--shards", "1"], ["--shards", "2"]),
        "shards4-w2": (["--shards", "2"], ["--shards", "1"]),
    }

    def _record(self, tmp_path, capsys, backend, steps="90"):
        trace = os.path.join(str(tmp_path), "run.jsonl")
        assert run_cli(
            "run-scenario", "--name", "uniform-churn", "--steps", steps,
            "--record", trace, "--index-every", "20", *self.BACKENDS[backend][0],
        ) == 0
        return trace, _final_hash(capsys.readouterr().out)

    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_resume_point_off_the_barrier_grid_lands_on_the_straight_hash(
        self, tmp_path, capsys, backend
    ):
        trace, straight = self._record(tmp_path, capsys, backend)
        assert TraceReader(trace).header["engine"] == ("now" if backend == "single" else "sharded")
        checkpoint = os.path.join(str(tmp_path), "mid.json")
        # 70 is past one barrier (64) and one barrier-aligned index frame.
        assert run_cli("replay", "--trace", trace, "--to-step", "70", "--checkpoint", checkpoint) == 0
        out = capsys.readouterr().out
        assert "verified 70 event(s)" in out and "checkpoint written" in out
        assert Checkpoint.load(checkpoint).steps_done == 70
        assert run_cli(
            "resume", "--checkpoint", checkpoint, "--steps", "20", *self.BACKENDS[backend][1]
        ) == 0
        assert _final_hash(capsys.readouterr().out) == straight

    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_tampered_frame_exits_one(self, tmp_path, capsys, backend):
        trace, _ = self._record(tmp_path, capsys, backend, steps="40")
        lines = open(trace, "r", encoding="utf-8").read().splitlines()
        for number, line in enumerate(lines):
            frame = json.loads(line)
            if frame.get("t") == "ev" and frame["i"] == 12:
                frame["w"] = 0.999
                lines[number] = json.dumps(frame)
        with open(trace, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        checkpoint = os.path.join(str(tmp_path), "mid.json")
        code = run_cli("replay", "--trace", trace, "--to-step", "30", "--checkpoint", checkpoint)
        captured = capsys.readouterr()
        assert code == 1
        assert "replay DIVERGED" in captured.err and "step 12" in captured.err
        assert not os.path.exists(checkpoint)

    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_step_beyond_the_trace_is_a_usage_error(self, tmp_path, capsys, backend):
        trace, _ = self._record(tmp_path, capsys, backend, steps="20")
        checkpoint = os.path.join(str(tmp_path), "mid.json")
        code = run_cli("replay", "--trace", trace, "--to-step", "21", "--checkpoint", checkpoint)
        captured = capsys.readouterr()
        assert code == 2
        assert "beyond the last recorded event" in captured.err
        assert not os.path.exists(checkpoint)


class TestCheckpointFromTraceRejections:
    """`replay --to-step` re-drives the scenario's own event source; a trace
    that has none is a usage error (exit 2) that names the right tool —
    never a false `DIVERGED` (exit 1) or a traceback."""

    def test_serve_trace_is_a_usage_error_naming_plain_replay(self, tmp_path, capsys):
        from repro.service import LiveEngineSession, live_scenario

        for shards in (0, 4):
            trace = os.path.join(str(tmp_path), f"serve{shards}.jsonl")
            session = LiveEngineSession(
                live_scenario(seed=3, initial_size=200, max_size=256, shards=shards)
            )
            session.attach_trace(trace)
            for index in range(5):
                session.execute({"op": "join", "id": index})
            session.close()
            checkpoint = os.path.join(str(tmp_path), f"mid{shards}.json")
            code = run_cli("replay", "--trace", trace, "--to-step", "3", "--checkpoint", checkpoint)
            captured = capsys.readouterr()
            assert code == 2
            assert "replay --trace" in captured.err
            assert not os.path.exists(checkpoint)
            assert run_cli("replay", "--trace", trace) == 0
            capsys.readouterr()


class TestNonObjectDocuments:
    """A JSON file whose top-level value is not an object is refused like any
    other wrong document: exit 2 with one line, never a traceback."""

    @pytest.mark.parametrize("text", ["[1]", '"str"', "5"])
    def test_trace_file(self, tmp_path, capsys, text):
        path = tmp_path / "t.jsonl"
        path.write_text(text + "\n")
        assert run_cli("replay", "--trace", str(path)) == 2
        assert "is not a repro-trace file" in capsys.readouterr().err
        assert run_cli("trace-diff", str(path), str(path)) == 2
        assert "is not a repro-trace file" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1]", '"str"', "5"])
    def test_checkpoint_file(self, tmp_path, capsys, text):
        path = tmp_path / "c.json"
        path.write_text(text + "\n")
        assert run_cli("resume", "--checkpoint", str(path)) == 2
        assert "not a repro checkpoint document" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "not json"])
    def test_checkpoint_that_is_not_json_is_named(self, tmp_path, capsys, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        assert run_cli("resume", "--checkpoint", str(path)) == 2
        err = capsys.readouterr().err
        assert "c.json" in err and "is not JSON" in err


class TestOtherVersionsRefused:
    """Trace v4 and checkpoint v3 only: any other version is refused by
    version, with exit 2 and one line, for single and sharded runs alike."""

    @pytest.mark.parametrize("shards", [(), ("--shards", "2")], ids=["single", "shards2"])
    def test_trace_of_another_version(self, tmp_path, capsys, shards):
        trace = str(tmp_path / "run.jsonl")
        assert run_cli(
            "run-scenario", "--name", "uniform-churn", "--steps", "20", *shards, "--record", trace
        ) == 0
        capsys.readouterr()
        lines = open(trace, "r", encoding="utf-8").read().splitlines()
        header = json.loads(lines[0])
        assert header["v"] == 4
        for version in (1, 2, 3):
            header["v"] = version
            old = tmp_path / f"v{version}.jsonl"
            old.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
            assert run_cli("replay", "--trace", str(old)) == 2
            err = capsys.readouterr().err
            assert f"unsupported trace version {version}" in err and "Traceback" not in err

    @pytest.mark.parametrize("shards", [(), ("--shards", "2")], ids=["single", "shards2"])
    def test_checkpoint_of_another_version(self, tmp_path, capsys, shards):
        path = str(tmp_path / "run.ckpt.json")
        assert run_cli(
            "run-scenario", "--name", "uniform-churn", "--steps", "20", *shards, "--checkpoint", path
        ) == 0
        capsys.readouterr()
        data = json.load(open(path, "r", encoding="utf-8"))
        assert data["version"] == 3
        for version in (1, 2):
            data["version"] = version
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(data, handle)
            assert run_cli("resume", "--checkpoint", path) == 2
            err = capsys.readouterr().err
            assert f"unsupported checkpoint version {version}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("keep_reports", False, "unknown scenario fields"),
        ("engine_options", {"strict_compromise": False}, "unknown engine_options fields"),
        ("engine_options", {"record_history": True}, "unknown engine_options fields"),
    ],
)
def test_spec_naming_a_retired_option_is_refused(tmp_path, capsys, field, value, message):
    spec = named_scenario("uniform-churn").to_dict()
    spec[field] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run_cli("run-scenario", "--spec", str(path), "--steps", "2") == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
