"""Routing ahead in sharded execution: bit-identity, flushes, robustness.

The batch loop (``repro.scenarios.runner.run_windows``) routes window *k+1*
while the shard workers execute window *k*.  The contract: **routing ahead
is an execution choice**, exactly like the worker count — a run produces
bit-identical results, probe outputs, composite hashes and recorded traces
to ``serial_run``, the serial reference loop over the coordinator's two
window halves (``tests/reference_loop.py``), for every worker count.  These
tests pin
that property (including across the loop's flush points — index frames,
checkpoints, idle exhaustion, stop conditions), the worker-death
regression (a killed child must surface as ``ShardWorkerError``, not hang
the coordinator in ``recv``), worker start-up (parallel, and nothing left
behind by a refused start), and the ``run-scenario --profile`` smoke.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pstats
import shutil
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Scenario
from repro.cli import main
from repro.errors import ConfigurationError
from repro.scenarios.probes import CorruptionTrajectoryProbe, CostLedgerProbe
from repro.shard import PHASE_KEYS, ShardCoordinator, ShardWorkerError
from repro.shard.worker import ShardWorker
from repro.trace import record_scenario, resume_from_checkpoint, trace_diff

from reference_loop import serial_record, serial_run

COMPARED_FIELDS = (
    "scenario",
    "steps",
    "events",
    "idle_steps",
    "final_size",
    "final_cluster_count",
    "final_worst_fraction",
    "peak_worst_fraction",
    "compromised_clusters",
    "stop_reason",
    "shards",
)

BASE = dict(
    name="pipeline",
    max_size=256,
    initial_size=200,
    tau=0.12,
    seed=13,
    steps=150,
    shards=4,
)


def _scenario(**overrides):
    fields = dict(BASE)
    fields.update(overrides)
    return Scenario.from_dict(fields)


def _run(workers, serial=False, **overrides):
    record = serial_record if serial else record_scenario
    session = record(
        _scenario(**overrides),
        workers=workers,
        probes=[CorruptionTrajectoryProbe(), CostLedgerProbe()],
    )
    result = session.result
    return (
        {name: getattr(result, name) for name in COMPARED_FIELDS},
        result.probes,
        session.final_state_hash,
    )


# ----------------------------------------------------------------------
# routed ahead == serial == across worker counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_pipelined_equals_unpipelined(workers):
    assert _run(workers) == _run(workers, serial=True)


@pytest.mark.parametrize("workers", [1, 2])
def test_pipelined_overlaps_windows(workers):
    coordinator = ShardCoordinator(_scenario(), workers=workers)
    try:
        coordinator.run(BASE["steps"])
        assert coordinator.windows_pipelined > 0
        assert set(coordinator.phase_times) == set(PHASE_KEYS)
        assert all(value >= 0.0 for value in coordinator.phase_times.values())
    finally:
        coordinator.close()


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    workers=st.sampled_from([1, 2]),
    barrier_interval=st.sampled_from([8, 32, 64]),
    adversary_weight=st.sampled_from([0.0, 0.4]),
)
def test_property_pipeline_mode_never_changes_results(
    seed, workers, barrier_interval, adversary_weight
):
    overrides = dict(
        seed=seed,
        steps=80,
        shards=2,
        shard_options={"barrier_interval": barrier_interval},
    )
    if adversary_weight:
        overrides["adversary"] = {"kind": "oblivious"}
        overrides["adversary_weight"] = adversary_weight
    oracle = _run(1, serial=True, **overrides)
    assert _run(workers, **overrides) == oracle


# ----------------------------------------------------------------------
# Flush points: traces, checkpoints, idle exhaustion, stop conditions
# ----------------------------------------------------------------------
def test_traces_identical_across_pipeline_modes_and_workers(tmp_path):
    # Index frames hash worker state mid-run, so this exercises the
    # predicted-flush path (the loop must drain before each frame).
    first = str(tmp_path / "w1-serial.jsonl")
    second = str(tmp_path / "w4-ahead.jsonl")
    s1 = serial_record(_scenario(), workers=1, trace_path=first, index_every=32)
    s4 = record_scenario(_scenario(), workers=4, trace_path=second, index_every=32)
    assert s1.final_state_hash == s4.final_state_hash
    diff = trace_diff(first, second)
    assert not diff.diverged
    assert diff.compared_events == s1.result.events
    with open(first, "rb") as serial, open(second, "rb") as ahead:
        assert serial.read() == ahead.read()


def test_checkpoints_identical_across_pipeline_modes(tmp_path):
    serial = str(tmp_path / "serial.ckpt")
    ahead = str(tmp_path / "ahead.ckpt")
    serial_record(_scenario(), workers=1, checkpoint_path=serial, checkpoint_every=48)
    record_scenario(_scenario(), workers=2, checkpoint_path=ahead, checkpoint_every=48)
    resumed_serial = resume_from_checkpoint(serial, workers=1, steps=50)
    resumed_ahead = resume_from_checkpoint(ahead, workers=2, steps=50)
    assert resumed_serial.final_state_hash == resumed_ahead.final_state_hash


def test_idle_exhaustion_flushes_and_matches_serial():
    overrides = dict(
        workload={"kind": "growth", "target_size": 230},
        max_idle_streak=4,
        steps=400,
    )
    oracle = _run(1, serial=True, **overrides)
    run = _run(1, **overrides)
    assert run == oracle
    assert run[0]["stop_reason"] == "source idle"


def test_stop_conditions_disable_pipelining_and_match_serial():
    def stop(record, driver):
        return "big enough" if record.network_size >= 205 else None

    def run(loop):
        coordinator = ShardCoordinator(_scenario(), workers=1, stop_conditions=[stop])
        try:
            result = loop(coordinator)
            return (
                result.stop_reason,
                result.events,
                coordinator.state_hash(),
                coordinator.windows_pipelined,
            )
        finally:
            coordinator.close()

    reason, events, state_hash, pipelined_windows = run(lambda c: c.run(BASE["steps"]))
    assert pipelined_windows == 0  # stop conditions are a standing flush
    assert (reason, events, state_hash) == run(lambda c: serial_run(c, BASE["steps"]))[:3]
    assert reason == "big enough"


# ----------------------------------------------------------------------
# Worker-death robustness
# ----------------------------------------------------------------------
def test_worker_killed_mid_run_raises_shard_worker_error():
    coordinator = ShardCoordinator(_scenario(steps=2000), workers=2)
    processes = [transport._process for transport in coordinator._transports]
    try:
        coordinator.run(50)  # healthy windows first
        victim = processes[1]
        victim.kill()
        victim.join(5)
        with pytest.raises(ShardWorkerError, match="died mid-command"):
            coordinator.run(1950)
    finally:
        coordinator.close()
    # close() must reap every child, including the killed one.
    assert all(not process.is_alive() for process in processes)


def test_worker_exception_carries_remote_traceback():
    coordinator = ShardCoordinator(_scenario(), workers=2)
    try:
        transport = coordinator._transports[0]
        transport.send("state_hash", 999)  # unhosted shard
        with pytest.raises(ShardWorkerError, match="ConfigurationError"):
            transport.recv()
    finally:
        coordinator.close()


# ----------------------------------------------------------------------
# Worker start-up
# ----------------------------------------------------------------------
SHARDED_CHECKPOINT = os.path.join(
    os.path.dirname(__file__), "fixtures", "checkpoint-sharded-handoff.json"
)


def test_workers_bootstrap_in_parallel(monkeypatch, tmp_path):
    """Worker 0's engines wait in bootstrap until worker 1's have started:
    a coordinator that awaited each worker before starting the next would
    never see worker 1 start."""
    marker = tmp_path / "worker-1-started"
    build = ShardWorker.__init__

    def bootstrap(self, scenario_data, shard_ids, sizes, restore=None):
        if 0 in shard_ids:
            deadline = time.monotonic() + 10.0
            while not marker.exists():
                if time.monotonic() > deadline:
                    raise RuntimeError("worker 1 never started beside worker 0")
                time.sleep(0.01)
        else:
            marker.touch()
        build(self, scenario_data, shard_ids, sizes, restore=restore)

    monkeypatch.setattr(ShardWorker, "__init__", bootstrap)  # forked workers inherit it
    coordinator = ShardCoordinator(_scenario(shards=2), workers=2)
    coordinator.close()


def test_a_failed_bootstrap_leaves_no_worker_behind(monkeypatch):
    build = ShardWorker.__init__

    def bootstrap(self, scenario_data, shard_ids, sizes, restore=None):
        if 1 in shard_ids:
            raise RuntimeError("bootstrap refused")
        build(self, scenario_data, shard_ids, sizes, restore=restore)

    before = set(multiprocessing.active_children())
    monkeypatch.setattr(ShardWorker, "__init__", bootstrap)
    with pytest.raises(ShardWorkerError, match="bootstrap refused"):
        ShardCoordinator(_scenario(shards=2), workers=2)
    assert set(multiprocessing.active_children()) <= before


def test_a_refused_sharded_checkpoint_leaves_no_worker_behind(tmp_path):
    """The state-hash check runs once the workers have restored their
    engines; its refusal closes them."""
    copy = str(tmp_path / "tampered.json")
    shutil.copy(SHARDED_CHECKPOINT, copy)
    with open(copy, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    data["state_hash"] = "0" * 64
    with open(copy, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    before = set(multiprocessing.active_children())
    with pytest.raises(ConfigurationError, match="state hash does not match"):
        resume_from_checkpoint(copy, workers=2)
    assert set(multiprocessing.active_children()) <= before


# ----------------------------------------------------------------------
# run-scenario --profile smoke
# ----------------------------------------------------------------------
def run_cli(*argv):
    return main(list(argv))


@pytest.mark.parametrize("extra", [(), ("--shards", "2")])
def test_profile_flag_writes_loadable_pstats(tmp_path, capsys, extra):
    out = os.path.join(str(tmp_path), "run.pstats")
    code = run_cli(
        "run-scenario", "--name", "uniform-churn", "--steps", "40",
        "--profile", out, *extra,
    )
    assert code == 0
    assert "profile written to" in capsys.readouterr().out
    stats = pstats.Stats(out)
    assert stats.total_calls > 0
