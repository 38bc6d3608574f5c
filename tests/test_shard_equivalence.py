"""Worker-count bit-identity of sharded runs (``repro.shard``).

The load-bearing claim of the sharded execution model: the *worker* count is
an execution choice, not a semantic one.  Running the same sharded scenario
with 1 (inline), 2 and 4 worker processes must produce bit-identical results
— same :class:`~repro.scenarios.runner.RunResult` observables, same probe
outputs, same composite state hash — because every decision that shapes the
run happens on the coordinator thread in a fixed order.  ``workers=1`` is
the in-process oracle; the property tests compare the process transports
against it under hypothesis-generated churn/adversary mixes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Scenario
from repro.scenarios.probes import CorruptionTrajectoryProbe, CostLedgerProbe
from repro.shard import ShardCoordinator
from repro.trace import checkpoint_from_trace, record_scenario, replay_trace, resume_from_checkpoint

#: RunResult fields compared across worker counts (elapsed time is wall
#: clock, the only field allowed to differ).
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


def _run(scenario_fields, workers):
    scenario = Scenario.from_dict(dict(scenario_fields))
    session = record_scenario(
        scenario,
        workers=workers,
        probes=[CorruptionTrajectoryProbe(), CostLedgerProbe()],
    )
    return session


def _comparable(session):
    result = session.result
    return (
        {name: getattr(result, name) for name in COMPARED_FIELDS},
        result.probes,
        session.final_state_hash,
    )


BASE = dict(
    name="equivalence",
    max_size=256,
    initial_size=200,
    tau=0.12,
    seed=11,
    steps=150,
    shards=4,
)


@pytest.mark.parametrize("workers", [2, 4])
def test_worker_counts_bit_identical_uniform_churn(workers):
    oracle = _comparable(_run(BASE, workers=1))
    assert _comparable(_run(BASE, workers=workers)) == oracle


@pytest.mark.parametrize(
    "workload",
    [
        {"kind": "growth", "target_size": 240},
        {"kind": "oscillating", "low_size": 170, "high_size": 230},
    ],
)
def test_worker_counts_bit_identical_across_workloads(workload):
    fields = dict(BASE, workload=workload, max_idle_streak=5)
    oracle = _comparable(_run(fields, workers=1))
    assert _comparable(_run(fields, workers=2)) == oracle


def test_worker_counts_bit_identical_shrink_with_floor_pulls():
    # Shrinking from 200 towards 150 drives shards below the rebalance floor
    # between barriers, so this run exercises the handoff path repeatedly.
    fields = dict(
        BASE,
        shards=2,
        workload={"kind": "shrink", "target_size": 150},
        max_idle_streak=5,
        shard_options={"barrier_interval": 16},
    )
    oracle = _comparable(_run(fields, workers=1))
    assert _comparable(_run(fields, workers=2)) == oracle


def test_worker_counts_bit_identical_with_oblivious_adversary():
    fields = dict(
        BASE,
        adversary={"kind": "oblivious"},
        adversary_weight=0.4,
    )
    oracle = _comparable(_run(fields, workers=1))
    assert _comparable(_run(fields, workers=2)) == oracle
    assert _comparable(_run(fields, workers=4)) == oracle


def test_cuckoo_rule_writes_identical_traces_on_one_and_two_workers(tmp_path):
    # Every placement rule is one engine, so every rule runs sharded.
    scenario = Scenario.from_dict(dict(BASE, shards=2, engine="cuckoo_rule"))
    paths = [str(tmp_path / f"w{workers}.jsonl") for workers in (1, 2)]
    hashes = [
        record_scenario(scenario, trace_path=path, index_every=32, workers=workers).final_state_hash
        for workers, path in zip((1, 2), paths)
    ]
    assert hashes[0] == hashes[1]
    with open(paths[0], "rb") as first, open(paths[1], "rb") as second:
        assert first.read() == second.read()


def test_workers_clamped_to_shard_count():
    scenario = Scenario.from_dict(dict(BASE, shards=2))
    coordinator = ShardCoordinator(scenario, workers=16)
    try:
        assert coordinator.workers == 2
    finally:
        coordinator.close()


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    adversary_weight=st.sampled_from([0.0, 0.3, 0.6]),
    barrier_interval=st.sampled_from([8, 32, 64]),
    join_probability=st.sampled_from([0.35, 0.5, 0.65]),
)
def test_property_random_mixes_worker_independent(
    seed, adversary_weight, barrier_interval, join_probability
):
    fields = dict(
        BASE,
        shards=2,
        seed=seed,
        steps=80,
        workload={"kind": "uniform", "join_probability": join_probability},
        shard_options={"barrier_interval": barrier_interval},
    )
    if adversary_weight:
        fields["adversary"] = {"kind": "oblivious"}
        fields["adversary_weight"] = adversary_weight
    oracle = _comparable(_run(fields, workers=1))
    assert _comparable(_run(fields, workers=2)) == oracle


#: The adversaries that read cluster interiors: each draws from a fresh
#: view of the coordinator's read model, so its windows are one event long.
CLUSTER_AWARE = [
    {"kind": "join_leave", "target_cluster": "first"},
    {"kind": "targeted_dos"},
    {"kind": "adaptive_corruption"},
]


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("adversary", CLUSTER_AWARE, ids=[spec["kind"] for spec in CLUSTER_AWARE])
def test_cluster_aware_adversaries_run_sharded(tmp_path, adversary, shards):
    """Worker counts write one trace; replay and a resumed cut reach its hash."""
    scenario = Scenario.from_dict(
        dict(BASE, shards=shards, steps=80, adversary=adversary, adversary_weight=0.6)
    )
    paths = [str(tmp_path / f"w{workers}.bin") for workers in (1, 2)]
    hashes = {
        record_scenario(
            scenario, trace_path=path, trace_format="binary", index_every=16, workers=workers
        ).final_state_hash
        for workers, path in zip((1, 2), paths)
    }
    with open(paths[0], "rb") as first, open(paths[1], "rb") as second:
        assert first.read() == second.read()
    (straight,) = hashes
    replayed = replay_trace(paths[0])
    assert replayed.ok and replayed.final_hash == straight
    checkpoint = str(tmp_path / "cut.json")
    checkpoint_from_trace(paths[0], 37, checkpoint)
    assert resume_from_checkpoint(checkpoint, workers=2).final_state_hash == straight
