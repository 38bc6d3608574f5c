"""Outside input read at the boundary: a broken trace or checkpoint never escapes.

A trace on disk is a channel that can corrupt what it carries.  Every frame
is checked against the one frame layout (``repro.trace.log``) as it loads,
so a malformed frame is a divergence at its step in ``replay`` (exit 1) and a
refusal naming its field and step in ``trace-diff`` (exit 2); a malformed
header, or a checkpoint whose envelope is malformed, is refused with exit 2
naming the field.  Here one field of one frame of a small JSONL or binary
trace (or one key of a checkpoint's envelope) is dropped, nulled, retyped,
set to a bool, made negative or out of range, or made NaN, and the CLI must
answer with one of those codes and no traceback.  In a binary trace the
mutated event frame travels as a JSON block, which readers accept in place
of a packed record.
"""

from __future__ import annotations

import json
import os
import re
import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import Scenario
from repro.cli import main
from repro.trace import TraceReader, record_scenario
from repro.trace.codec import open_codec_writer

DROP = "<drop>"
#: One mutation each: dropped, null, wrong types, bools, negative, out of
#: range, NaN.
MUTATIONS = [DROP, None, {}, [], "x", 0.5, True, False, -1, -(2**40), 2**32, 2**64, float("nan")]

SCENARIO = dict(name="boundary", seed=47, max_size=1024, initial_size=100, tau=0.1, k=2.0, steps=40)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A 40-event trace in both encodings (index frames every 15 events) and
    a checkpoint cut at step 20."""
    tmp = tmp_path_factory.mktemp("boundary")
    paths = {}
    for trace_format in ("jsonl", "binary"):
        paths[trace_format] = str(tmp / f"run.{trace_format}")
        record_scenario(
            Scenario(**SCENARIO), trace_path=paths[trace_format], index_every=15,
            trace_format=trace_format,
        )
    paths["checkpoint"] = str(tmp / "cut.json")
    record_scenario(Scenario(**SCENARIO), steps=20, checkpoint_path=paths["checkpoint"])
    return paths


def _mutate(document, key, value):
    if value is DROP:
        del document[key]
    else:
        document[key] = value
    return document


def _write_trace(original, path, position, key, value):
    """A copy of trace ``original`` with one field of frame ``position`` mutated."""
    reader = TraceReader(original)
    frames = reader.frames
    _mutate(frames[position], key, value)
    if reader.trace_format == "jsonl":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(json.dumps(frame) + "\n" for frame in frames))
        return path
    codec = open_codec_writer(path, "binary")
    for index, frame in enumerate(frames):
        (codec.write_json if index == position else codec.write_frame)(frame)
    codec.close()
    return path


def _cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert "Traceback" not in err, err
    return code, out, err


def _check_trace(capsys, original, bad, header):
    code, out, err = _cli(capsys, "replay", "--trace", bad)
    if header:  # refused, unless the header still holds what it may
        assert code in (0, 2), (out, err)
    else:
        assert code in (0, 1), (out, err)
        if code == 1:
            assert re.search(r"replay DIVERGED at step \d+: ", out), out
    code, out, err = _cli(capsys, "trace-diff", original, bad)
    assert code in (0, 1, 2), (out, err)
    return code, out, err


@pytest.mark.parametrize("trace_format", ["jsonl", "binary"])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_frame_never_escapes(recorded, tmp_path, capsys, trace_format, data):
    original = recorded[trace_format]
    frames = TraceReader(original).frames
    position = data.draw(st.integers(0, len(frames) - 1), label="frame")
    key = data.draw(st.sampled_from(sorted(frames[position])), label="key")
    value = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    bad = _write_trace(original, str(tmp_path / f"bad.{trace_format}"), position, key, value)
    _check_trace(capsys, original, bad, header=position == 0)


def _frame_at(frames, kind, nth=0):
    return [index for index, frame in enumerate(frames) if frame["t"] == kind][nth]


def _last_event_step(frames, position):
    return [frame["i"] for frame in frames[1:position] if frame["t"] == "ev"][-1]


#: The cases that escaped as tracebacks before frames were checked, plus
#: ``c = {}``, which replayed OK: (kind of frame, key, mutation).
ESCAPED = [
    ("ev", "i", DROP), ("ev", "k", DROP), ("ev", "r", DROP), ("ev", "t", DROP),
    ("ev", "c", DROP), ("ev", "i", {}), ("ev", "n", {}), ("ev", "c", {}),
    ("x", "i", DROP), ("x", "t", DROP), ("end", "h", DROP), ("end", "t", DROP),
]


@pytest.mark.parametrize("trace_format", ["jsonl", "binary"])
@pytest.mark.parametrize("kind, key, value", ESCAPED, ids=[f"{k}-{f}-{v if v is DROP else v!r}" for k, f, v in ESCAPED])
def test_listed_frame_cases_diverge_at_a_step(recorded, tmp_path, capsys, trace_format, kind, key, value):
    original = recorded[trace_format]
    frames = TraceReader(original).frames
    position = _frame_at(frames, kind, 20 if kind == "ev" else 0)
    # The frame's own step when it still has a valid one, else the last
    # event's step + 1.
    own = frames[position].get("i")
    step = own if own is not None and key != "i" else _last_event_step(frames, position) + 1
    bad = _write_trace(original, str(tmp_path / f"bad.{trace_format}"), position, key, value)
    code, out, err = _cli(capsys, "replay", "--trace", bad)
    assert code == 1, (out, err)
    assert f"replay DIVERGED at step {step}: malformed " in out, out
    code, out, err = _cli(capsys, "trace-diff", original, bad)
    assert code == 2, (out, err)
    assert f"step {step}: malformed " in err and f"({key!r})" in err, err


def test_listed_cases_diverge_through_to_step_as_well(recorded, tmp_path, capsys):
    original = recorded["jsonl"]
    frames = TraceReader(original).frames
    bad = _write_trace(original, str(tmp_path / "bad.jsonl"), _frame_at(frames, "ev", 20), "c", {})
    checkpoint = str(tmp_path / "mid.json")
    code, out, err = _cli(capsys, "replay", "--trace", bad, "--to-step", "30", "--checkpoint", checkpoint)
    assert code == 1 and "at step 21: malformed event frame: contact cluster ('c')" in err, err
    assert not os.path.exists(checkpoint)
    # A cut before the malformed frame never reads it.
    assert _cli(capsys, "replay", "--trace", bad, "--to-step", "15", "--checkpoint", checkpoint)[0] == 0


def _resume(capsys, tmp_path, document):
    path = str(tmp_path / "bad.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return _cli(capsys, "resume", "--checkpoint", path, "--steps", "5")


#: The envelope cases that escaped as tracebacks: (key path, mutation).
ENVELOPE = [
    ("engine", DROP), ("engine", []), ("engine/config", DROP), ("engine/state", DROP),
    ("steps_done", {}), ("events_done", {}), ("state_hash", {}), ("source", 5), ("scenario", 5),
    ("engine/randcl", []), ("source/rng", DROP),
]


@pytest.mark.parametrize("path, value", ENVELOPE, ids=[f"{p}-{v if v is DROP else v!r}" for p, v in ENVELOPE])
def test_listed_envelope_cases_are_refused_naming_the_key(recorded, tmp_path, capsys, path, value):
    with open(recorded["checkpoint"], encoding="utf-8") as handle:
        document = json.load(handle)
    *parents, key = path.split("/")
    target = document
    for parent in parents:
        target = target[parent]
    _mutate(target, key, value)
    code, out, err = _resume(capsys, tmp_path, document)
    assert code == 2, (out, err)
    assert f"malformed checkpoint: {path} " in err, err


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    key=st.sampled_from(["format", "version", "engine", "source", "scenario", "steps_done",
                         "events_done", "state_hash", "engine_kind"]),
    value=st.sampled_from(MUTATIONS),
)
@example(key="steps_done", value=True)
def test_a_mutated_envelope_resumes_or_is_refused(recorded, tmp_path, capsys, key, value):
    with open(recorded["checkpoint"], encoding="utf-8") as handle:
        document = json.load(handle)
    if key in document or value is not DROP:
        _mutate(document, key, value)
    code, out, err = _resume(capsys, tmp_path, document)
    assert code in (0, 2), (out, err)


def test_an_escaping_exception_is_an_internal_error(recorded, tmp_path, capsys, monkeypatch):
    """Exit 3, with its traceback: never exit 1, which means "diverged"."""
    import repro.trace.replay as replay

    def broken(self):
        raise RuntimeError("boom")

    monkeypatch.setattr(replay.ReplayEngine, "run", broken)
    copy = str(tmp_path / "run.jsonl")
    shutil.copy(recorded["jsonl"], copy)
    assert main(["replay", "--trace", copy]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


#: Spec fields of the wrong type (a bool is not an int, a string not a
#: number, and an object field takes an object or null).
RETYPED = [
    ("seed", "7"), ("tau", "0.1"), ("steps", True), ("max_idle_streak", 2.5),
    ("name", 5), ("engine_options", "x"), ("workload", []), ("shard_options", 3),
]


@pytest.mark.parametrize("key, value", RETYPED, ids=[f"{k}-{v!r}" for k, v in RETYPED])
def test_a_retyped_spec_field_is_refused_naming_the_key(tmp_path, capsys, key, value):
    spec = str(tmp_path / "spec.json")
    with open(spec, "w", encoding="utf-8") as handle:
        json.dump(dict(SCENARIO, **{key: value}), handle)
    code, out, err = _cli(capsys, "run-scenario", "--spec", spec)
    assert code == 2, (out, err)
    assert f"scenario field {key!r} is {value!r} (expected " in err, err


@pytest.mark.parametrize("shards", [0, 2])
def test_null_options_in_a_spec_read_as_none_given(tmp_path, capsys, shards):
    spec = str(tmp_path / "spec.json")
    with open(spec, "w", encoding="utf-8") as handle:
        json.dump(dict(SCENARIO, shards=shards, engine_options=None, shard_options=None), handle)
    code, out, err = _cli(capsys, "run-scenario", "--spec", spec, "--steps", "5")
    assert code == 0, (out, err)


@pytest.mark.parametrize("key, value", [("seed", "7"), ("tau", "0.1"), ("engine_options", ["x"])])
def test_a_retyped_checkpoint_scenario_is_refused_naming_the_key(recorded, tmp_path, capsys, key, value):
    with open(recorded["checkpoint"], encoding="utf-8") as handle:
        document = json.load(handle)
    document["scenario"][key] = value
    code, out, err = _resume(capsys, tmp_path, document)
    assert code == 2, (out, err)
    assert f"scenario field {key!r} is {value!r}" in err, err


#: Checkpoint keys below the envelope's top levels that escaped as exit 3
#: or as a message naming no key: (key path, mutation, the path refused).
NESTED = [
    ("engine/randcl", {"kernel": 5}, "engine/randcl/kernel"),
    ("engine/config", {"bogus": 1}, "engine/config/bogus"),
    ("engine/config/cascade_exchanges", None, "engine/config/cascade_exchanges"),
    ("engine/config/walk_mode", "bogus", "engine/config/walk_mode"),
    ("engine/config/walk_kernel", "naive", "engine/config/walk_kernel"),
    ("source/rng", ["x"], "source/rng"),
]


@pytest.mark.parametrize("path, value, named", NESTED, ids=[n for _p, _v, n in NESTED])
def test_nested_checkpoint_cases_are_refused_naming_the_key(recorded, tmp_path, capsys, path, value, named):
    with open(recorded["checkpoint"], encoding="utf-8") as handle:
        document = json.load(handle)
    *parents, key = path.split("/")
    target = document
    for parent in parents:
        target = target[parent]
    _mutate(target, key, value)
    code, out, err = _resume(capsys, tmp_path, document)
    assert code == 2, (out, err)
    assert f"malformed checkpoint: {named} " in err, err


@pytest.mark.parametrize("tau", [-1, 1.5])
def test_a_checkpoint_scenario_out_of_range_is_refused_like_a_spec(recorded, tmp_path, capsys, tau):
    """``resume`` and ``run-scenario`` refuse the same scenario, by one check."""
    with open(recorded["checkpoint"], encoding="utf-8") as handle:
        document = json.load(handle)
    document["scenario"]["tau"] = tau
    code, out, err = _resume(capsys, tmp_path, document)
    assert code == 2 and "tau must lie in [0, 1)" in err, (out, err)
    spec = str(tmp_path / "spec.json")
    with open(spec, "w", encoding="utf-8") as handle:
        json.dump(document["scenario"], handle)
    code, out, err = _cli(capsys, "run-scenario", "--spec", spec)
    assert code == 2 and "tau must lie in [0, 1)" in err, (out, err)


#: Source objects of a spec whose kind names no class.
SOURCE_KINDS = [("workload", {"kind": []}), ("adversary", {"kind": ["a"]}), ("adversary", {})]


@pytest.mark.parametrize("key, value", SOURCE_KINDS, ids=[f"{k}-{v!r}" for k, v in SOURCE_KINDS])
def test_a_source_kind_naming_no_class_is_refused_naming_the_key(tmp_path, capsys, key, value):
    spec = str(tmp_path / "spec.json")
    with open(spec, "w", encoding="utf-8") as handle:
        json.dump(dict(SCENARIO, **{key: value}), handle)
    code, out, err = _cli(capsys, "run-scenario", "--spec", spec)
    assert code == 2, (out, err)
    assert f"scenario field '{key}/kind': unknown {key} kind" in err, err


def test_a_shard_engine_config_is_checked_before_any_worker_starts(tmp_path, capsys):
    path = str(tmp_path / "sharded.json")
    record_scenario(Scenario(**dict(SCENARIO, initial_size=200, shards=2)), steps=10, checkpoint_path=path)
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    document["engine"]["shards"]["1"]["engine"]["config"] = {"bogus": 1}
    code, out, err = _resume(capsys, tmp_path, document)
    assert code == 2, (out, err)
    assert "malformed checkpoint: engine/shards/1/engine/config/bogus " in err, err
