"""The batch-session contract, on every backend.

One suite, parametrised over the backends a recorded ``run-scenario`` can
run on — the single engine, the shard coordinator inline, the shard
coordinator on two worker processes — through the two entry points they
share (``record_scenario`` / ``resume_from_checkpoint``).  The contract: a
run is a pure function of (seed, admitted event sequence).  So every
recorded trace replays, sealed or crashed-shape, JSONL or binary; worker
count and pipelining never move a trace byte or the final hash; and a run
cut into checkpoint/resume segments *anywhere* ends on the uninterrupted
run's hash — for sharded runs that holds because barriers follow the
admitted event count, never the end of a ``run()`` call.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Scenario
from repro.cli import main as cli_main
from repro.core.events import ChurnEvent
from repro.errors import ConfigurationError
from repro.network.node import NodeRole
from repro.scenarios.probes import CorruptionTrajectoryProbe, Probe
from repro.scenarios.runner import stop_when_size_at_least
from repro.service import live_scenario
from repro.shard import ShardCoordinator
from repro.trace import (
    Checkpoint,
    TraceReader,
    open_driver,
    record_scenario,
    replay_trace,
    resume_from_checkpoint,
)

from reference_loop import serial_record
from service_helpers import SIZES, cadence_marks

FIELDS = dict(
    name="session",
    max_size=256,
    initial_size=200,
    tau=0.12,
    seed=21,
    steps=150,
    adversary={"kind": "oblivious"},
    adversary_weight=0.3,
)

#: backend name -> (scenario overrides, worker processes).  A small barrier
#: interval and a rebalance threshold of 1 make barriers frequent and make
#: them move nodes, so a misplaced barrier changes the state hash.
SHARDED = dict(shards=4, shard_options={"barrier_interval": 16, "rebalance_threshold": 1})
BACKENDS = {
    "single": ({}, 1),
    "shards4-w1": (SHARDED, 1),
    "shards4-w2": (SHARDED, 2),
}

on_every_backend = pytest.mark.parametrize("backend", list(BACKENDS))


def _scenario(backend, **overrides):
    return Scenario.from_dict({**FIELDS, **BACKENDS[backend][0], **overrides})


def _record(backend, **kwargs):
    return record_scenario(_scenario(backend), workers=BACKENDS[backend][1], **kwargs)


@functools.lru_cache(maxsize=None)
def _straight_hash(backend):
    """Final hash of the uninterrupted, unrecorded run."""
    return _record(backend).final_state_hash


class _Bomb(Probe):
    """Kills the run from inside the observation path, mid-way."""

    name = "bomb"
    inline = False

    def on_records(self, engine, records):
        if records[-1].step_index >= 70:
            raise RuntimeError("boom")


class TestRecordedRunReplays:
    @on_every_backend
    @pytest.mark.parametrize("trace_format", ["jsonl", "binary"])
    def test_sealed_trace_replays_to_the_recorded_hash(self, tmp_path, backend, trace_format):
        path = str(tmp_path / "run.trace")
        session = _record(backend, trace_path=path, trace_format=trace_format, index_every=40)
        reader = TraceReader(path)
        assert reader.header["engine"] == ("now" if backend == "single" else "sharded")
        assert reader.end_frame()["h"] == session.final_state_hash
        report = replay_trace(path)
        assert report.ok, report.divergence
        assert report.events_applied == session.result.events == reader.event_count()
        assert report.hash_checks == len(reader.index_frames()) > 0
        assert report.final_hash == session.final_state_hash

    @on_every_backend
    @pytest.mark.parametrize("trace_format", ["jsonl", "binary"])
    def test_crashed_shape_trace_still_replays(self, tmp_path, backend, trace_format):
        path = str(tmp_path / "crashed.trace")
        with pytest.raises(RuntimeError, match="boom"):
            _record(
                backend,
                trace_path=path,
                trace_format=trace_format,
                index_every=20,
                probes=[_Bomb()],
            )
        reader = TraceReader(path)
        assert reader.end_frame() is None
        assert 0 < reader.event_count() < FIELDS["steps"]
        report = replay_trace(path)
        assert report.ok, report.divergence
        assert report.events_applied == reader.event_count()
        assert report.hash_checks > 0


class TestCadenceLaw:
    """One recorder: index frames and checkpoints sit at the first window
    boundary at or after every N events — exactly on the multiples when the
    driver's windows are one event (the single engine)."""

    @on_every_backend
    def test_index_frames_and_checkpoints_sit_on_window_boundaries(
        self, tmp_path, monkeypatch, backend
    ):
        saved = []
        save = Checkpoint.save

        def spy(checkpoint, path):
            saved.append((checkpoint.events_done, checkpoint.steps_done))
            save(checkpoint, path)

        monkeypatch.setattr(Checkpoint, "save", spy)
        path = str(tmp_path / "run.jsonl")
        session = _record(
            backend,
            trace_path=path,
            index_every=23,  # divides neither the step count nor a barrier window
            checkpoint_path=str(tmp_path / "ck.json"),
            checkpoint_every=40,
        )
        total = session.result.events
        window = 1 if backend == "single" else SHARDED["shard_options"]["barrier_interval"]
        boundaries = sorted({*range(window, total + 1, window), total})
        reader = TraceReader(path)
        assert [frame["ev"] for frame in reader.index_frames()] == cadence_marks(boundaries, 23)
        # ... plus the checkpoint every sealed run ends on.
        assert [events for events, _ in saved] == cadence_marks(boundaries, 40) + [total]
        if backend == "single":
            assert [frame["ev"] for frame in reader.index_frames()] == list(range(23, total + 1, 23))
            # A mid-run checkpoint's steps_done is the step of its last event.
            steps = [frame["i"] for frame in reader.events()]
            assert [done for _, done in saved[:-1]] == [steps[events - 1] for events, _ in saved[:-1]]
        assert saved[-1][1] == FIELDS["steps"]


class TestStartUpOrder:
    """Everything that can refuse a run refuses it before the first event is
    applied and before any output file is opened or truncated."""

    @pytest.mark.parametrize("backend", ["single", "shards4-w1"])
    def test_bad_spec_leaves_an_existing_trace_file_intact(self, tmp_path, backend):
        path = tmp_path / "precious.jsonl"
        path.write_bytes(b"an earlier run's trace\n")
        with pytest.raises(ConfigurationError, match="unknown workload kind"):
            record_scenario(
                _scenario(backend, adversary=None, workload={"kind": "nope"}),
                trace_path=str(path),
                workers=BACKENDS[backend][1],
            )
        assert path.read_bytes() == b"an earlier run's trace\n"


class TestComparisonRules:
    """Every placement rule is one engine, so every rule records, replays and resumes."""

    @pytest.mark.parametrize("rule", ["no_shuffle", "cuckoo_rule", "static_clusters"])
    def test_record_replay_resume_lands_on_the_recorded_hash(self, tmp_path, rule):
        trace, checkpoint = str(tmp_path / "run.jsonl"), str(tmp_path / "cut.json")
        scenario = _scenario("single", engine=rule)
        recorded = record_scenario(scenario, trace_path=trace, index_every=40)
        report = replay_trace(trace)
        assert report.ok, report.divergence
        assert report.final_hash == recorded.final_state_hash
        record_scenario(scenario, steps=70, checkpoint_path=checkpoint, checkpoint_every=10**9)
        resumed = resume_from_checkpoint(checkpoint)
        assert resumed.result.steps == FIELDS["steps"] - 70
        assert resumed.final_state_hash == recorded.final_state_hash


def _timeless(result):
    """A RunResult's fields without its wall-clock one."""
    return {**dataclasses.asdict(result), "elapsed_seconds": None}


class TestOneDriverSeam:
    """``Scenario.run`` is a delegate to the driver ``record_scenario`` opens:
    the same result on every backend, stop conditions included."""

    @on_every_backend
    def test_scenario_run_is_record_scenarios_result(self, backend):
        probes = [CorruptionTrajectoryProbe(), CorruptionTrajectoryProbe()]
        ran = _scenario(backend).run(probes=probes[:1])
        recorded = _record(backend, probes=probes[1:]).result
        assert ran.events == FIELDS["steps"] and ran.shards == BACKENDS[backend][0].get("shards", 0)
        assert _timeless(ran) == _timeless(recorded)

    @pytest.mark.parametrize("backend", ["single", "shards4-w1"])
    def test_scenario_run_keeps_stop_conditions(self, backend):
        scenario = _scenario(backend, adversary=None, workload={"kind": "growth", "target_size": 250})
        target = scenario.initial_size + 20
        stopped = scenario.run(stop_conditions=[stop_when_size_at_least(target)])
        assert stopped.stop_reason == f"size >= {target}"
        assert stopped.final_size >= target and stopped.steps < scenario.steps
        with open_driver(scenario, stop_conditions=[stop_when_size_at_least(target)]) as driver:
            assert _timeless(driver.run(scenario.steps)) == _timeless(stopped)

    def test_single_engine_paths_load_no_shard_machinery(self, tmp_path):
        """Run, record, replay, from-trace checkpoint and resume on one
        engine import neither repro.shard nor multiprocessing."""
        script = (
            "import sys\n"
            "from repro import Scenario\n"
            "from repro.trace import (checkpoint_from_trace, record_scenario,\n"
            "    replay_trace, resume_from_checkpoint)\n"
            f"scenario = Scenario.from_dict({_scenario('single', steps=30).to_dict()!r})\n"
            "scenario.run()\n"
            "record_scenario(scenario, trace_path='t.bin', trace_format='binary', index_every=7)\n"
            "assert replay_trace('t.bin').ok\n"
            "checkpoint_from_trace('t.bin', 11, 'c.json')\n"
            "resume_from_checkpoint('c.json')\n"
            "assert 'repro.shard' not in sys.modules, 'repro.shard loaded'\n"
            "assert 'multiprocessing' not in sys.modules, 'multiprocessing loaded'\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr


def _given_events():
    """Twenty leave/fresh-join pairs, a Byzantine join and a named rejoin."""
    events = []
    for gid in range(0, 60, 3):
        events += [ChurnEvent.leave(gid), ChurnEvent.join(role=NodeRole.HONEST)]
    return events + [
        ChurnEvent.join(role=NodeRole.BYZANTINE),
        ChurnEvent.join(role=NodeRole.HONEST, node_id=3),
    ]


def _live(shards):
    options = {"barrier_interval": 16, "rebalance_threshold": 1} if shards else {}
    return live_scenario(seed=4, shards=shards, shard_options=options, **SIZES)


#: shards -> (sha256 of the repr of the records, final state hash) of
#: ``_given_events`` on ``_live(shards)``.  Pinned from the separate
#: dispatch/collect classes the live session and replay ran on before they
#: drove these drivers: moving onto the drivers changed no record and no hash.
GIVEN_PINS = {
    0: (
        "b69e3329a87730496535a64b63d606f5ef405efd7bc1e3e75b505380aabcbec6",
        "9ad1066b741f8b2ebe5be160f906564e4b9a890d1e96011495b65b6eab18c3cf",
    ),
    2: (
        "476ba4c81cc654e14895a6f081766d71c7c32172f2a755e05383647acbe9a970",
        "9d9feb5823970bc29773e55e4a7e52a8791a4263e23dda101e7c5e4faa3604ff",
    ),
}


class TestGivenEvents:
    """A scenario without a workload or adversary (a live session's) opens the
    same driver, which has no source: ``run`` refuses it, and its events are
    given to ``dispatch`` / ``collect``."""

    @pytest.mark.parametrize("shards", [0, 2])
    def test_run_refuses_a_driver_without_a_source(self, tmp_path, shards):
        scenario = _live(shards)
        with pytest.raises(ConfigurationError, match="has no event source"):
            scenario.run()
        with open_driver(scenario) as driver:
            assert driver.source is None
            with pytest.raises(ConfigurationError, match="has no event source"):
                driver.run(5)
        path = tmp_path / "precious.jsonl"
        path.write_bytes(b"an earlier run's trace\n")
        with pytest.raises(ConfigurationError, match="has no event source"):
            record_scenario(scenario, trace_path=str(path))
        assert path.read_bytes() == b"an earlier run's trace\n"

    @pytest.mark.parametrize("backend", ["single", "shards4-w1"])
    def test_resume_refuses_a_checkpoint_whose_scenario_has_no_source(self, tmp_path, backend):
        """A checkpoint is outside input: one that carries a source snapshot
        but names a source-less scenario is refused, before any worker starts."""
        path = tmp_path / "ck.json"
        _record(backend, steps=20, checkpoint_path=str(path))
        checkpoint = Checkpoint.load(str(path))
        checkpoint.data["scenario"].update(workload=None, adversary=None)
        checkpoint.save(str(path))
        with pytest.raises(ConfigurationError, match="has no event source"):
            resume_from_checkpoint(str(path), steps=5)

    @pytest.mark.parametrize("shards", [0, 2])
    def test_dispatch_and_collect_give_the_pinned_records_however_cut(self, shards):
        events = _given_events()
        with open_driver(_live(shards)) as whole, open_driver(_live(shards)) as cut:
            records = whole.collect(whole.dispatch(events))
            tokens = [cut.dispatch(events[start : start + 7]) for start in range(0, len(events), 7)]
            assert [record for token in tokens for record in cut.collect(token)] == records
            digest = hashlib.sha256(repr(records).encode()).hexdigest()
            assert (digest, whole.state_hash()) == GIVEN_PINS[shards]
            assert cut.state_hash() == whole.state_hash()
            assert [record.step_index for record in records] == list(range(1, len(events) + 1))
            assert whole.total_steps == whole.total_events == len(events)


class TestExecutionChoicesAreInvisible:
    def test_workers_and_pipelining_move_no_trace_byte(self, tmp_path):
        """Index frames and checkpoints fall mid-run here, so the route-ahead
        loop has to predict its drains exactly to stay byte-identical to the
        serial reference loop."""
        runs = {}
        for workers in (1, 2, 4):
            for record in (record_scenario, serial_record):
                path = str(tmp_path / f"w{workers}-{record.__name__}.jsonl")
                session = record(
                    _scenario("shards4-w1"),
                    trace_path=path,
                    index_every=24,
                    checkpoint_path=str(tmp_path / "ck.json"),
                    checkpoint_every=50,
                    workers=workers,
                )
                with open(path, "rb") as handle:
                    runs[workers, record.__name__] = (handle.read(), session.final_state_hash)
        assert len(runs) == 6
        assert len(set(runs.values())) == 1


class TestSegmentationIsInvisible:
    @on_every_backend
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        cuts=st.lists(
            st.integers(min_value=1, max_value=FIELDS["steps"] - 1), max_size=3, unique=True
        ),
        resume_workers=st.sampled_from([1, 2, 4]),
    )
    def test_any_segmentation_ends_on_the_straight_hash(
        self, tmp_path_factory, backend, cuts, resume_workers
    ):
        checkpoint = str(tmp_path_factory.mktemp("segments") / "ck.json")
        bounds = sorted(cuts) + [FIELDS["steps"]]
        session = _record(
            backend, steps=bounds[0], checkpoint_path=checkpoint, checkpoint_every=10**9
        )
        for done, until in zip(bounds, bounds[1:]):
            assert Checkpoint.load(checkpoint).steps_done == done
            session = resume_from_checkpoint(
                checkpoint, steps=until - done, workers=resume_workers
            )
        assert session.final_state_hash == _straight_hash(backend)

    @on_every_backend
    def test_resume_default_steps_finish_the_budget(self, tmp_path, backend):
        checkpoint = str(tmp_path / "ck.json")
        _record(backend, steps=100, checkpoint_path=checkpoint)
        resumed = resume_from_checkpoint(checkpoint, workers=BACKENDS[backend][1])
        assert resumed.result.steps == 50
        assert resumed.final_state_hash == _straight_hash(backend)
        envelope = Checkpoint.load(checkpoint)
        assert envelope.steps_done == FIELDS["steps"]
        # One envelope; the kind names the payload (absent = single engine).
        assert envelope.data["format"] == "repro-checkpoint"
        assert envelope.data.get("engine_kind") == (
            None if backend == "single" else "sharded"
        )


# ----------------------------------------------------------------------
# Regression: the barrier schedule belongs to the event sequence
# ----------------------------------------------------------------------
#: The measured case: a rebalance threshold of 1 makes every barrier move
#: nodes, so a checkpoint cut off the default 64-event barrier grid used to
#: resume onto a different schedule (every twentieth cut of 66..126 is run).
UNALIGNED_CUTS = range(66, 127, 20)


def _moving_scenario(seed, **overrides):
    fields = dict(
        name="moving",
        max_size=512,
        initial_size=240,
        tau=0.1,
        seed=seed,
        steps=200,
        shards=4,
        shard_options={"rebalance_threshold": 1},
    )
    fields.update(overrides)
    return Scenario.from_dict(fields)


@pytest.fixture(scope="module")
def straight_and_cuts(tmp_path_factory):
    """Per seed: the uninterrupted hash and one checkpoint per unaligned cut."""
    out = {}
    for seed in (1, 2, 3):
        with ShardCoordinator(_moving_scenario(seed)) as coordinator:
            coordinator.run(200)
            # Not vacuous: these barriers really hand nodes between shards.
            assert coordinator.handoffs_sent > 0
            straight = coordinator.state_hash()
        directory = tmp_path_factory.mktemp(f"cuts-seed{seed}")
        checkpoints = {}
        for cut in UNALIGNED_CUTS:
            checkpoints[cut] = str(directory / f"cut{cut}.json")
            record_scenario(
                _moving_scenario(seed), steps=cut, checkpoint_path=checkpoints[cut]
            )
        out[seed] = (straight, checkpoints)
    return out


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_unaligned_cut_resumes_onto_the_uninterrupted_run(
    tmp_path, straight_and_cuts, seed, workers
):
    straight, checkpoints = straight_and_cuts[seed]
    for cut, saved in checkpoints.items():
        checkpoint = shutil.copy(saved, str(tmp_path / f"cut{cut}.json"))
        resumed = resume_from_checkpoint(checkpoint, workers=workers)
        assert resumed.result.steps == 200 - cut
        assert resumed.final_state_hash == straight, (seed, cut, workers)


def _final_hash(output):
    return [line for line in output.splitlines() if "final state hash" in line][0].split()[-1]


def test_barrier_interval_flag_rides_in_header_and_checkpoint(tmp_path, capsys):
    """`--barrier-interval 8` is semantic: resume and replay must run it too."""
    spec = str(tmp_path / "spec.json")
    trace = str(tmp_path / "run.jsonl")
    checkpoint = str(tmp_path / "ck.json")
    with open(spec, "w", encoding="utf-8") as handle:
        handle.write(_moving_scenario(2).to_json())
    common = ["run-scenario", "--spec", spec, "--shards", "1"]

    assert cli_main(common) == 0
    default_hash = _final_hash(capsys.readouterr().out)
    assert cli_main(common + ["--barrier-interval", "8"]) == 0
    straight_hash = _final_hash(capsys.readouterr().out)
    assert straight_hash != default_hash  # the interval shapes this run

    assert (
        cli_main(
            common
            + ["--barrier-interval", "8", "--steps", "96", "--record", trace]
            + ["--checkpoint", checkpoint]
        )
        == 0
    )
    capsys.readouterr()
    for scenario in (TraceReader(trace).scenario, Checkpoint.load(checkpoint).scenario_dict):
        assert scenario["shard_options"] == {"rebalance_threshold": 1, "barrier_interval": 8}
    assert cli_main(["replay", "--trace", trace]) == 0
    assert "replay OK" in capsys.readouterr().out
    assert cli_main(["resume", "--checkpoint", checkpoint, "--shards", "2", "--steps", "104"]) == 0
    assert _final_hash(capsys.readouterr().out) == straight_hash


def test_old_sharded_checkpoint_format_is_refused_by_name(tmp_path, capsys):
    path = str(tmp_path / "old.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"format": "repro-sharded-checkpoint", "version": 1}')
    assert cli_main(["resume", "--checkpoint", path]) == 2
    assert "repro-sharded-checkpoint" in capsys.readouterr().err


# ----------------------------------------------------------------------
# CLI: run-scenario --shards / resume --shards
# ----------------------------------------------------------------------
def test_cli_run_scenario_sharded_and_resume(tmp_path, capsys):
    spec = str(tmp_path / "spec.json")
    trace = str(tmp_path / "trace.jsonl")
    checkpoint = str(tmp_path / "ck.json")
    with open(spec, "w", encoding="utf-8") as handle:
        handle.write(_scenario("shards4-w2").to_json())

    code = cli_main(
        [
            "run-scenario",
            "--spec", spec,
            "--shards", "2",
            "--record", trace,
            "--checkpoint", checkpoint,
            "--steps", "100",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "shards" in out
    assert "final state hash:" in out
    assert os.path.exists(trace) and os.path.exists(checkpoint)

    code = cli_main(["resume", "--checkpoint", checkpoint, "--shards", "2", "--steps", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert "resumed from" in out
    assert _final_hash(out) == _straight_hash("shards4-w1")


def test_cli_shards_flag_defaults_logical_shards(tmp_path, capsys):
    # A spec without a shards field still runs sharded under --shards W,
    # with the documented default of 4 logical shards.
    spec = str(tmp_path / "spec.json")
    with open(spec, "w", encoding="utf-8") as handle:
        handle.write(_scenario("single").to_json())
    code = cli_main(["run-scenario", "--spec", spec, "--shards", "1", "--steps", "60"])
    out = capsys.readouterr().out
    assert code == 0
    assert "| shards" in out


def test_cli_rejects_bad_shard_flags(tmp_path, capsys):
    spec = str(tmp_path / "spec.json")
    with open(spec, "w", encoding="utf-8") as handle:
        handle.write(_scenario("shards4-w1").to_json())
    assert cli_main(["run-scenario", "--spec", spec, "--shards", "0"]) == 2
    assert (
        cli_main(["run-scenario", "--spec", spec.replace("spec", "missing"),
                  "--shards", "2"])
        == 2
    )
    # --barrier-interval without a sharded run is a usage error.
    assert cli_main(["run-scenario", "--name", "uniform-churn", "--barrier-interval", "8"]) == 2
    capsys.readouterr()


def test_resume_rejects_missing_checkpoint(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli_main(["resume", "--checkpoint", missing]) == 2
    capsys.readouterr()
