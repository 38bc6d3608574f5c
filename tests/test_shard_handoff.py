"""Handoff edge cases of the sharded barrier protocol (``repro.shard``).

Scripted event sources drive the coordinator into the awkward corners of
cross-shard ownership transfer: one identity churning across shards several
times inside a single barrier window, and a shard drained towards losing its
last cluster (the ``min_shard_size`` floor pull must replenish it).  Every
case is checked for worker-count bit-identity as well — the edge cases are
exactly where a transport-order bug would surface.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from typing import List, Optional

import pytest

from repro import Scenario
from repro.core.events import ChurnEvent
from repro.errors import ConfigurationError
from repro.network.node import NodeRole
from repro.shard import ShardCoordinator
from repro.shard.worker import InlineTransport
from repro.trace import record_scenario, resume_from_checkpoint

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
#: Two shards, barriers every 16 events, a move whenever the sizes differ by
#: more than one; shrinking uniform churn keeps the barriers moving nodes.
HANDOFF_SPEC = os.path.join(FIXTURES, "handoff-heavy.json")
#: That spec cut at step 50 of 120 (checkpoint version 3).
HANDOFF_CHECKPOINT = os.path.join(FIXTURES, "checkpoint-sharded-handoff.json")
#: The uninterrupted 120-step run's final hash.
HANDOFF_STRAIGHT_HASH = "6242ae0c620171471a6fe9f683cd232232be6144c29c590dae6051c8f6ad01ba"


class _ScriptedSource:
    """Replays a fixed list of events (``None`` idles), then idles forever."""

    def __init__(self, events: List[Optional[ChurnEvent]]) -> None:
        self._events = list(events)
        self._cursor = 0

    def next_event(self, engine) -> Optional[ChurnEvent]:
        if self._cursor >= len(self._events):
            return None
        event = self._events[self._cursor]
        self._cursor += 1
        return event


@dataclass
class _ScriptedScenario(Scenario):
    """A scenario whose event stream is a fixed script (handoff tests only)."""

    script: List[Optional[ChurnEvent]] = field(default_factory=list, repr=False)

    def build_source(self, driver):
        return _ScriptedSource(self.script)

    def to_dict(self):
        data = super().to_dict()
        data.pop("script", None)  # workers rebuild a plain Scenario
        return data


def _scenario(script, **overrides):
    fields = dict(
        name="handoff",
        max_size=256,
        initial_size=200,
        tau=0.1,
        seed=5,
        steps=len(script),
        shards=2,
        max_idle_streak=3,
    )
    fields.update(overrides)
    return _ScriptedScenario(script=script, **fields)


def _run(scenario, workers):
    coordinator = ShardCoordinator(scenario, workers=workers)
    try:
        result = coordinator.run(scenario.steps)
        return result, coordinator.state_hash(), list(coordinator.directory.sizes)
    finally:
        coordinator.close()


def test_identity_churning_twice_within_one_window():
    # Node 0 (shard 0's block) leaves, rejoins, leaves and rejoins again —
    # all inside one 64-event barrier window.  Each rejoin is a fresh
    # placement of a known identity; the shard engines must track the
    # global id through every local reincarnation.
    script = [
        ChurnEvent.leave(0),
        ChurnEvent.join(role=NodeRole.BYZANTINE, node_id=0),
        ChurnEvent.leave(0),
        ChurnEvent.join(role=NodeRole.HONEST, node_id=0),
    ]
    scenario = _scenario(script)
    result, state_hash, sizes = _run(scenario, workers=1)
    assert result.events == 4
    assert result.final_size == 200
    result2, state_hash2, sizes2 = _run(scenario, workers=2)
    assert (result2.final_size, sizes2, state_hash2) == (
        result.final_size,
        sizes,
        state_hash,
    )


def test_rejoin_lands_on_least_loaded_shard():
    # Leaving two shard-0 nodes makes shard 0 the least-loaded shard, so the
    # rejoin goes back there; the directory must reactivate, not reallocate.
    script = [
        ChurnEvent.leave(0),
        ChurnEvent.leave(1),
        ChurnEvent.join(role=NodeRole.HONEST, node_id=0),
    ]
    scenario = _scenario(script)
    coordinator = ShardCoordinator(scenario, workers=1)
    try:
        coordinator.run(scenario.steps)
        assert coordinator.directory.owner[0] == 0
        assert coordinator.directory.sizes == [99, 100]
    finally:
        coordinator.close()


def test_draining_shard_is_pulled_back_above_floor():
    # Drain shard 0's initial block (gids 0..99) far below the floor with a
    # small barrier interval: every barrier must plan a floor pull before
    # the shard loses its last cluster, and the run must stay worker-count
    # identical through the repeated handoffs.
    script = [ChurnEvent.leave(gid) for gid in range(70)]
    scenario = _scenario(
        script, shard_options={"barrier_interval": 10, "min_shard_size": 48}
    )
    result, state_hash, sizes = _run(scenario, workers=1)
    assert result.final_size == 130
    assert min(sizes) >= 48  # the floor held at every barrier
    _, state_hash2, sizes2 = _run(scenario, workers=2)
    assert (sizes2, state_hash2) == (sizes, state_hash)


def test_forced_move_picks_largest_gids():
    # Force one deterministic move and check it through the directory.
    script = [ChurnEvent.leave(gid) for gid in range(30)]
    scenario = _scenario(
        script,
        steps=len(script),
        shard_options={"barrier_interval": len(script), "min_shard_size": 90},
    )
    coordinator = ShardCoordinator(scenario, workers=1)
    try:
        coordinator.run(scenario.steps)
        # Shard 0 fell to 70, so the floor pull moved the 10 nodes shard 1
        # can spare above the floor: the donor's largest gids, 199 downward.
        moved = list(range(199, 189, -1))
        assert coordinator.handoffs_sent == len(moved)
        assert [coordinator.directory.owner[gid] for gid in moved] == [0] * len(moved)
        assert coordinator.directory.owner[189] == 1
        assert coordinator.directory.sizes == [80, 90]
        assert coordinator.check_invariants(check_honest_majority=False).holds
    finally:
        coordinator.close()


def test_emigrate_ids_applies_leaves_and_piggybacks_summary():
    scenario = Scenario(
        name="emigrate",
        max_size=256,
        initial_size=120,
        tau=0.1,
        seed=9,
        shards=1,
    )
    transport = InlineTransport(scenario.to_dict(), [0], [120])
    try:
        transport.send("emigrate_ids", 0, [119, 118, 117, 116, 115])
        reply = transport.recv()
        assert reply["summary"]["size"] == 115
        transport.send("read_view", 0)
        members = sorted(
            gid for cluster in transport.recv()["clusters"].values() for gid in cluster
        )
        assert members == list(range(115))
    finally:
        transport.close()


@pytest.mark.parametrize("workers", [1, 2])
def test_composite_invariant_check(workers):
    # Barriers move nodes between the shards; the composite verdict holds,
    # folds the shard reports, and catches a directory that lost track of a
    # shard's size.
    script = [ChurnEvent.leave(gid) for gid in range(70)]
    scenario = _scenario(
        script, shard_options={"barrier_interval": 10, "min_shard_size": 48}
    )
    with ShardCoordinator(scenario, workers=workers) as coordinator:
        coordinator.run(scenario.steps)
        assert coordinator.handoffs_sent > 0
        report = coordinator.check_invariants(check_honest_majority=False)
        assert report.holds and report.violations == []
        assert report.time_step == 70
        assert report.network_size == 130
        assert report.cluster_count == coordinator.merger.cluster_count
        assert report.worst_byzantine_fraction == coordinator.merger.worst_fraction
        majority = coordinator.check_invariants()
        assert majority.compromised_clusters == coordinator.merger.compromised()
        assert majority.holds == (not majority.compromised_clusters)
        coordinator.directory.sizes[1] += 1  # desynchronise the directory
        report = coordinator.check_invariants(check_honest_majority=False)
        size = coordinator.directory.sizes[1] - 1
        assert not report.holds
        assert report.violations == [
            f"shard 1: size {size} differs from the directory's {size + 1}"
        ]


def test_directory_emigrants_match_worker_selection():
    # The coordinator plans emigrants from the directory; the selection must
    # be the donor's largest active gids in descending order with the roles
    # the worker would have reported.
    scenario = _scenario([], steps=0)
    coordinator = ShardCoordinator(scenario, workers=1)
    try:
        moves = coordinator.directory.emigrants(1, 5)
        assert [gid for gid, _role in moves] == [199, 198, 197, 196, 195]
        registry = coordinator.directory.nodes
        for gid, role in moves:
            expected = "byzantine" if registry.is_byzantine(gid) else "honest"
            assert role == expected
        with pytest.raises(ConfigurationError):
            coordinator.directory.emigrants(0, 101)
    finally:
        coordinator.close()


def test_checkpoint_with_barrier_moves_resumes(tmp_path):
    # A sharded checkpoint cut at step 50 of ``handoff-heavy.json``, after
    # barrier moves: a resume on either transport lands on the straight run's
    # hash.
    data = json.load(open(HANDOFF_CHECKPOINT, "r", encoding="utf-8"))
    assert data["steps_done"] == 50
    for workers in (1, 2):
        copy = str(tmp_path / f"ckpt-{workers}.json")
        shutil.copy(HANDOFF_CHECKPOINT, copy)
        session = resume_from_checkpoint(copy, steps=70, workers=workers)
        assert session.result.steps == 70
        assert session.final_state_hash == HANDOFF_STRAIGHT_HASH
    spec = json.load(open(HANDOFF_SPEC, "r", encoding="utf-8"))
    assert record_scenario(Scenario.from_dict(spec)).final_state_hash == HANDOFF_STRAIGHT_HASH
