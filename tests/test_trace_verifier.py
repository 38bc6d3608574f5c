"""The one trace verifier, held to a tamper matrix over every kind of trace.

``replay`` (re-applying the recorded events through a rebuilt driver) and
``replay --to-step`` (re-driving the scenario from its seed) check a run
against its recorded frames through the same ``TraceVerifier``.  Six kinds
of trace — a single-engine JSONL trace, its binary twin, a sharded batch
trace, a live single-engine and a live sharded session's trace, and a
grow-then-idle trace whose step index outruns its event count — are each
tampered nine ways: one event observable, one input field, three inputs
the re-executed run refuses (a leave naming no node or an unknown one, a
join naming an active one), one index hash, one index event count, the
end hash, and a truncated tail.
Both entry points must name the same first diverging step, and the
checkpoint path must write nothing.
"""

from __future__ import annotations

import os
import re

import pytest

from repro import Scenario
from repro.errors import ConfigurationError
from repro.trace import (
    ReplayReport,
    TraceDivergenceError,
    TraceReader,
    checkpoint_from_trace,
    record_scenario,
    replay_trace,
)
from repro.trace.codec import open_codec_writer

from service_helpers import frames_from_ops, make_session, pump

PARAMS = dict(max_size=1024, initial_size=100, tau=0.1, k=2.0)
SHARDED = dict(
    max_size=256,
    initial_size=200,
    shards=2,
    shard_options={"barrier_interval": 16, "rebalance_threshold": 1},
)


def _batch(tmp, name, trace_format="jsonl", workers=1, **overrides):
    fields = dict(PARAMS, steps=40)
    fields.update(overrides)
    path = os.path.join(tmp, name)
    record_scenario(
        Scenario(name="verifier-test", seed=7, **fields),
        trace_path=path,
        index_every=10,
        trace_format=trace_format,
        workers=workers,
    )
    return path


def _live(tmp, name, backend):
    path = os.path.join(tmp, name)
    session = make_session(backend, seed=9)
    try:
        session.attach_trace(path, index_every=10)
        pump(session, frames_from_ops(["join"] * 20 + ["leave", "sample", "join"] * 8), chunk=6)
    finally:
        session.close()
    return path


#: Trace kind -> how to record it into a directory.
KINDS = {
    "jsonl": lambda tmp: _batch(tmp, "run.jsonl"),
    "binary": lambda tmp: _batch(tmp, "run.bin", "binary"),
    "sharded": lambda tmp: _batch(tmp, "sharded.jsonl", workers=2, **SHARDED),
    "serve": lambda tmp: _live(tmp, "serve.jsonl", "single"),
    "serve-sharded": lambda tmp: _live(tmp, "serve-sharded.jsonl", "shards=2"),
    "grow-idle": lambda tmp: _batch(
        tmp, "grow.jsonl", **dict(SHARDED, steps=60, workload={"kind": "growth", "target_size": 230})
    ),
}


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("verifier-traces"))
    return {kind: record(tmp) for kind, record in KINDS.items()}


def _write(reader, frames, path):
    """Write ``frames`` in ``reader``'s encoding (a tampered copy stays binary)."""
    codec = open_codec_writer(path, reader.trace_format)
    for frame in frames:
        codec.write_frame(frame)
    codec.close()
    return path


def _events(frames):
    return [frame for frame in frames if frame["t"] == "ev"]


def _tamper_observable(frames):
    frame = _events(frames)[len(_events(frames)) // 2]
    frame["sz"] += 1
    return frame["i"]


def _tamper_input(frames):
    # A fresh join names a node id nobody holds: re-applied, the engine
    # assigns that id; re-driven, the source generates a fresh join.
    joins = [frame for frame in _events(frames) if frame["k"] == "join" and frame["n"] is None]
    frame = joins[len(joins) // 2]
    frame["n"] = 10**6
    return frame["i"]


def _tamper_refused(frames):
    # A fresh join turned into a leave names no departing node: re-applied,
    # the driver refuses it; re-driven, the source generates a join.
    joins = [frame for frame in _events(frames) if frame["k"] == "join" and frame["n"] is None]
    frame = joins[len(joins) // 3]
    frame["k"] = "leave"
    return frame["i"]


def _tamper_unknown_leave(frames):
    # The same join turned into a leave of a node nobody ever held.
    step = _tamper_refused(frames)
    next(frame for frame in frames if frame.get("i") == step)["n"] = 10**6
    return step


def _tamper_active_join(frames):
    # A fresh join names the last joined node still in the network:
    # re-applied, the driver refuses it (sharded, the router does, before a
    # worker would); re-driven, the source generates a fresh join.
    joins = [frame for frame in _events(frames) if frame["k"] == "join" and frame["n"] is None]
    frame = joins[len(joins) // 2]
    active = []
    for earlier in _events(frames)[: _events(frames).index(frame)]:
        if earlier["k"] == "join":
            active.append(earlier["a"])
        elif earlier["n"] in active:
            active.remove(earlier["n"])
    frame["n"] = active[-1]
    return frame["i"]


def _index(frames):
    return next(frame for frame in frames if frame["t"] == "x")


def _tamper_index_hash(frames):
    frame = _index(frames)
    frame["h"] = "0" * 64
    return frame["i"]


def _tamper_index_count(frames):
    frame = _index(frames)
    frame["ev"] += 1
    return frame["i"]


def _tamper_end_hash(frames):
    frames[-1]["h"] = "0" * 64
    return _events(frames)[-1]["i"]


INDEX = "index frame inconsistent with the re-executed run: "

#: Tamper -> (edit returning the step it breaks, the reason replay gives).
#: Re-applied, a tampered input shows in what the backend made of it: the id
#: the engine assigned, or the node a sharded record names.
TAMPERS = {
    "observable": (_tamper_observable, "network size mismatch"),
    "input": (_tamper_input, "(assigned node id|event node) mismatch"),
    "refused": (
        _tamper_refused,
        "the re-executed run refused the recorded event: a leave event must name "
        "the departing node",
    ),
    "unknown-leave": (
        _tamper_unknown_leave,
        "the re-executed run refused the recorded event: (node 1000000 is not "
        "registered|leave event names node 1000000, which no shard owns)",
    ),
    "active-join": (
        _tamper_active_join,
        r"the re-executed run refused the recorded event: (node \d+ is already in a "
        r"cluster|join event names node \d+, which is already active)",
    ),
    "index-h": (_tamper_index_hash, INDEX + "state hash mismatch"),
    "index-ev": (_tamper_index_count, INDEX + "event count mismatch"),
    "end-h": (_tamper_end_hash, "final state hash mismatch"),
}


def _is_live(kind):
    return kind.startswith("serve")


@pytest.mark.parametrize("tamper", list(TAMPERS))
@pytest.mark.parametrize("kind", list(KINDS))
def test_both_entry_points_name_the_first_divergence(tmp_path, traces, kind, tamper):
    reader = TraceReader(traces[kind])
    frames = reader.frames
    edit, replay_reason = TAMPERS[tamper]
    step = edit(frames)
    bad = _write(reader, frames, os.path.join(str(tmp_path), f"bad-{kind}"))

    report = replay_trace(bad)
    assert not report.ok
    assert report.divergence["step"] == step
    assert re.match(replay_reason, report.divergence["reason"]), report.divergence
    # Only verified events count: those before the diverging one, and it too
    # when a hash after it is what disagrees.
    hashed = tamper in ("index-h", "index-ev", "end-h")
    verified = [frame for frame in _events(frames) if frame["i"] < step + hashed]
    assert report.events_applied == len(verified)
    if tamper in ("refused", "unknown-leave", "active-join"):
        assert report.divergence["replayed"] is None

    checkpoint = os.path.join(str(tmp_path), "from-trace.json")
    last_step = _events(frames)[-1]["i"]
    if _is_live(kind):
        # A live session's clients were its event source: nothing to re-drive.
        with pytest.raises(ConfigurationError, match="live `serve` session"):
            checkpoint_from_trace(bad, to_step=last_step, checkpoint_path=checkpoint)
    else:
        with pytest.raises(TraceDivergenceError, match=f"diverged .* step {step}:") as raised:
            checkpoint_from_trace(bad, to_step=last_step, checkpoint_path=checkpoint)
        assert raised.value.divergence["step"] == step
        if tamper in ("input", "active-join"):  # re-driven, the input itself disagrees
            assert raised.value.divergence["reason"].startswith("event node mismatch")
        if tamper in ("refused", "unknown-leave"):
            assert raised.value.divergence["reason"].startswith("event kind mismatch")
    assert not os.path.exists(checkpoint)


def _expected(frames, final_hash, recorded_final_hash):
    """The report a verified replay of ``frames`` gives: every event re-applied."""
    return ReplayReport(
        events_applied=len(_events(frames)),
        hash_checks=sum(1 for frame in frames if frame["t"] == "x"),
        ok=True,
        divergence=None,
        final_hash=final_hash,
        recorded_final_hash=recorded_final_hash,
    )


@pytest.mark.parametrize("kind", list(KINDS))
def test_untampered_trace_replays_every_event(traces, kind):
    reader = TraceReader(traces[kind])
    end = reader.end_frame()
    assert replay_trace(traces[kind]) == _expected(reader.frames, end["h"], end["h"])
    if kind == "grow-idle":
        # Its last index frame follows idle steps: step index past event count.
        last = reader.index_frames()[-1]
        assert last["i"] > last["ev"] == len(_events(reader.frames))


@pytest.mark.parametrize("kind", list(KINDS))
def test_truncated_tail_verifies_up_to_its_last_complete_frame(tmp_path, traces, kind):
    reader = TraceReader(traces[kind])
    frames = reader.frames
    index = frames.index(_index(frames))
    cut = os.path.join(str(tmp_path), f"cut-{kind}")
    codec = open_codec_writer(cut, reader.trace_format)
    for frame in frames[: index + 1]:
        codec.write_frame(frame)
    codec.flush()  # the index frame is on disk, as a crashed run leaves it
    codec.write_frame(frames[index + 1])
    codec.close()
    with open(cut, "r+b") as handle:
        handle.truncate(os.path.getsize(cut) - 3)  # the next frame is cut short

    kept = frames[: index + 1]
    assert replay_trace(cut) == _expected(kept, kept[-1]["h"], None)
    if _is_live(kind):
        return
    checkpoint = os.path.join(str(tmp_path), "from-cut.json")
    with pytest.raises(ConfigurationError, match="beyond the last recorded event"):
        checkpoint_from_trace(cut, to_step=kept[-1]["i"] + 1, checkpoint_path=checkpoint)
    assert not os.path.exists(checkpoint)
    result = checkpoint_from_trace(cut, to_step=_events(kept)[-1]["i"], checkpoint_path=checkpoint)
    assert result.state_hash == kept[-1]["h"]
    assert result.hash_checks == 1


def _cli_replay(path, capsys):
    cli = pytest.importorskip("repro.cli")
    code = cli.main(["replay", "--trace", path])
    return code, capsys.readouterr()


@pytest.mark.parametrize("value", ["foo", {}], ids=["str", "dict"])
@pytest.mark.parametrize("field", ["k", "r"])
@pytest.mark.parametrize("kind", ["jsonl", "sharded"])
def test_malformed_kind_or_role_diverges_at_its_step(tmp_path, traces, capsys, kind, field, value):
    """A JSONL event frame whose ``k`` or ``r`` is not a kind or a role."""
    reader = TraceReader(traces[kind])
    frames = reader.frames
    frame = _events(frames)[len(_events(frames)) // 2]
    frame[field] = value
    bad = _write(reader, frames, os.path.join(str(tmp_path), f"malformed-{kind}"))
    code, out = _cli_replay(bad, capsys)
    assert code == 1, out
    assert f"replay DIVERGED at step {frame['i']}: malformed event frame" in out.out
    assert "Traceback" not in out.err


@pytest.mark.parametrize("shards", [0, 2], ids=["single", "shards2"])
@pytest.mark.parametrize("field, old", [("k", "leave"), ("r", "byzantine")])
def test_malformed_binary_enum_diverges_at_its_first_event(tmp_path, capsys, shards, field, old):
    """A binary trace whose preamble renames a kind or a role: the first
    event frame that names it diverges, exit 1."""
    sharded = dict(SHARDED, workload={"kind": "uniform", "byzantine_join_fraction": 0.3})
    path = (
        _batch(str(tmp_path), "run.bin", "binary", workers=2, **sharded)
        if shards
        else _batch(str(tmp_path), "run.bin", "binary", workload=sharded["workload"])
    )
    step = next(frame["i"] for frame in _events(TraceReader(path).frames) if frame[field] == old)
    with open(path, "rb") as handle:
        data = handle.read()
    renamed = f'"{old[:-1]}x"'.encode()
    with open(path, "wb") as handle:
        handle.write(data.replace(f'"{old}"'.encode(), renamed, 1))  # the preamble comes first
    code, out = _cli_replay(path, capsys)
    assert code == 1, out
    assert f"replay DIVERGED at step {step}: malformed event frame" in out.out
    assert "Traceback" not in out.err
