"""Specs, traces and checkpoints that carry a retired observation option.

``keep_reports`` (scenario), ``record_history``, ``strict_compromise`` and
``enforce_size_range`` (engine options) no longer exist: a run's steps reach
callers through the observation bus only.  Artefacts written before their
retirement carry them, and load through the one retired-option table
(:data:`repro.core.engine.RETIRED_OPTIONS`): ``record_history`` is dropped
whatever its value, the other three are dropped when false and refused by
name (exit 2) when true.

The two fixtures were recorded by the last version that had the options
(commit 67f25e04fef43444fc0fe77259b45d1ecaf5221d); the hashes below are the
ones that version printed for them.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro import EngineConfig, Scenario
from repro.cli import main as cli_main
from repro.core.engine import RETIRED_OPTIONS
from repro.errors import ConfigurationError
from repro.trace import TraceReader, record_scenario, replay_trace, resume_from_checkpoint

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
#: A live session (shards 0, 24 requests): its header has ``keep_reports``
#: and ``engine_options.record_history: false``.
LIVE_TRACE = os.path.join(FIXTURES, "live-trace-retired-options.jsonl")
LIVE_FINAL_HASH = "58e7083b1b5691ef71ea37ae95bca9b187e27eb91d83905b3562094ad0d03d9a"
#: ``uniform-churn`` at seed 3, cut at step 40 of 80: the engine config has all
#: three engine options, the scenario ``keep_reports``.
CHECKPOINT = os.path.join(FIXTURES, "checkpoint-retired-options.json")
CHECKPOINT_HASH = "ce88f188623ca3ae7bfed3bb61db79f81e9c735fad7968d4f35cb2a1143e07e9"
#: The uninterrupted 80-step run's final hash.
STRAIGHT_HASH = "6875ef90603881e5d8d3d21504ae3406cbf99f787f829f9803ba4190d6f8e563"

SPEC = dict(name="retired", max_size=1024, initial_size=100, tau=0.1, k=2.0, seed=7, steps=3)

REFUSABLE = [
    ("scenario", "keep_reports"),
    ("engine_options", "strict_compromise"),
    ("engine_options", "enforce_size_range"),
]


def _spec(where, key, value):
    if where == "scenario":
        return dict(SPEC, **{key: value})
    return dict(SPEC, engine_options={"walk_mode": "oracle", key: value})


class TestScenarioSpecs:
    def test_table_names_exactly_the_retired_options(self):
        assert RETIRED_OPTIONS == {
            "scenario": {"keep_reports": False},
            "engine_options": {
                "record_history": None,
                "strict_compromise": False,
                "enforce_size_range": False,
            },
        }
        assert len(Scenario.__dataclass_fields__) == 18
        assert len(EngineConfig.__dataclass_fields__) == 3

    @pytest.mark.parametrize("where,key", REFUSABLE)
    def test_false_is_dropped(self, where, key):
        scenario = Scenario.from_dict(_spec(where, key, False))
        assert key not in scenario.to_dict()
        assert key not in scenario.engine_options
        assert scenario.run().events == 3

    @pytest.mark.parametrize("where,key", REFUSABLE)
    def test_true_is_refused_by_name(self, where, key):
        with pytest.raises(ConfigurationError, match=key):
            Scenario.from_dict(_spec(where, key, True))

    @pytest.mark.parametrize("value", [True, False])
    def test_record_history_is_dropped_whatever_its_value(self, value):
        scenario = Scenario.from_dict(_spec("engine_options", "record_history", value))
        assert scenario.engine_options == {"walk_mode": "oracle"}

    def test_unknown_fields_are_still_refused(self):
        with pytest.raises(ConfigurationError, match="unknown scenario fields"):
            Scenario.from_dict(dict(SPEC, record_history=False))

    @pytest.mark.parametrize("where,key", REFUSABLE)
    def test_cli_exits_2_naming_the_field(self, tmp_path, capsys, where, key):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_spec(where, key, True)))
        assert cli_main(["run-scenario", "--spec", str(spec)]) == 2
        assert key in capsys.readouterr().err

    def test_cli_runs_a_spec_with_false_values(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        data = dict(SPEC, keep_reports=False)
        data["engine_options"] = {opt: False for opt in RETIRED_OPTIONS["engine_options"]}
        spec.write_text(json.dumps(data))
        assert cli_main(["run-scenario", "--spec", str(spec)]) == 0
        assert "events applied" in capsys.readouterr().out

    def test_probe_buffer_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run-scenario", "--name", "uniform-churn", "--probe-buffer", "8"])
        assert exit_info.value.code == 2
        assert "--probe-buffer" in capsys.readouterr().err


class TestOldArtefacts:
    def test_old_live_trace_replays(self):
        header = TraceReader(LIVE_TRACE).header["scenario"]
        assert header["keep_reports"] is False
        assert header["engine_options"] == {"record_history": False}
        report = replay_trace(LIVE_TRACE)
        assert report.ok, report.divergence
        assert report.final_hash == report.recorded_final_hash == LIVE_FINAL_HASH

    def test_old_checkpoint_resumes_onto_the_straight_hash(self, tmp_path):
        data = json.load(open(CHECKPOINT, "r", encoding="utf-8"))
        assert set(RETIRED_OPTIONS["engine_options"]) <= set(data["engine"]["config"])
        assert data["state_hash"] == CHECKPOINT_HASH
        copy = str(tmp_path / "ckpt.json")
        shutil.copy(CHECKPOINT, copy)
        session = resume_from_checkpoint(copy)
        assert session.result.steps == 40
        assert session.final_state_hash == STRAIGHT_HASH
        # The checkpoint it advanced to is written without the retired keys.
        config = json.load(open(copy, "r", encoding="utf-8"))["engine"]["config"]
        assert set(config) == set(EngineConfig.__dataclass_fields__)

    @pytest.mark.parametrize("key", ["strict_compromise", "enforce_size_range"])
    def test_checkpoint_asking_for_a_retired_behaviour_exits_2(self, tmp_path, capsys, key):
        data = json.load(open(CHECKPOINT, "r", encoding="utf-8"))
        data["engine"]["config"][key] = True
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(data))
        assert cli_main(["resume", "--checkpoint", str(path)]) == 2
        assert key in capsys.readouterr().err

    def test_sharded_checkpoint_is_refused_before_any_worker_starts(self, tmp_path, capsys):
        path = str(tmp_path / "sharded.json")
        scenario = Scenario.from_dict(dict(SPEC, initial_size=200, steps=20, shards=2))
        record_scenario(scenario, steps=10, checkpoint_path=path)
        data = json.load(open(path, "r", encoding="utf-8"))
        data["engine"]["shards"]["1"]["engine"]["config"]["strict_compromise"] = True
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        assert cli_main(["resume", "--checkpoint", path, "--shards", "2"]) == 2
        assert "strict_compromise" in capsys.readouterr().err
