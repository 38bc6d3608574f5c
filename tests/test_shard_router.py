"""Unit tests for the sharded-execution router layer (``repro.shard.router``).

These cover the deterministic placement rules — slice assignment, the
least-loaded join rule, the rebalance planner — and the configuration guard
rails the :class:`~repro.shard.coordinator.ShardCoordinator` enforces up
front (unsupported adversaries, inline probes).
"""

from __future__ import annotations

import pytest

from repro import Scenario
from repro.core.events import ChurnEvent
from repro.errors import ConfigurationError
from repro.network.node import NodeRole
from repro.scenarios.probes import CallbackProbe, CorruptionTrajectoryProbe
from repro.scenarios.runner import EventPull
from repro.shard import ShardCoordinator, ShardDirectory, iter_events, plan_rebalance, slice_sizes
from repro.shard.router import EventRouter


# ----------------------------------------------------------------------
# slice_sizes
# ----------------------------------------------------------------------
def test_slice_sizes_even_and_remainder():
    assert slice_sizes(100, 4) == [25, 25, 25, 25]
    assert slice_sizes(103, 4) == [26, 26, 26, 25]
    assert slice_sizes(7, 1) == [7]


def test_slice_sizes_rejects_bad_arguments():
    with pytest.raises(ConfigurationError):
        slice_sizes(100, 0)
    with pytest.raises(ConfigurationError):
        slice_sizes(3, 4)


# ----------------------------------------------------------------------
# plan_rebalance
# ----------------------------------------------------------------------
def test_plan_rebalance_quiet_when_balanced():
    assert plan_rebalance([50, 50], threshold=16, floor=24) is None
    assert plan_rebalance([50, 45], threshold=16, floor=24) is None  # within threshold
    assert plan_rebalance([50], threshold=16, floor=24) is None  # one shard


def test_plan_rebalance_moves_half_the_gap():
    # gap 30 > threshold 16: move 15 from the largest to the smallest.
    assert plan_rebalance([80, 50], threshold=16, floor=24) == (0, 1, 15)
    # ties break to the lowest index on both sides.
    assert plan_rebalance([80, 80, 50, 50], threshold=16, floor=24) == (0, 2, 15)


def test_plan_rebalance_floor_pull_overrides_threshold():
    # spread within threshold, but shard 1 fell below the floor: pull it up.
    assert plan_rebalance([30, 20], threshold=16, floor=24) == (0, 1, 4)


def test_plan_rebalance_never_drains_donor_below_floor():
    # Ideal floor pull is 10, but the donor can only spare 2.
    assert plan_rebalance([26, 14], threshold=100, floor=24) == (0, 1, 2)
    # Donor at the floor itself: no move at all.
    assert plan_rebalance([24, 14], threshold=100, floor=24) is None


# ----------------------------------------------------------------------
# ShardDirectory
# ----------------------------------------------------------------------
def _directory_with_initial(sizes):
    directory = ShardDirectory(len(sizes))
    gid = 0
    for shard, size in enumerate(sizes):
        for _ in range(size):
            directory.register_initial(shard, gid, NodeRole.HONEST)
            gid += 1
    return directory


def test_directory_fresh_join_goes_least_loaded():
    directory = _directory_with_initial([5, 3, 4])
    shard, gid, role, fresh = directory.place_join(None, NodeRole.HONEST, time_step=1)
    assert (shard, role, fresh) == (1, NodeRole.HONEST, True)
    assert gid == 12  # next id after the 12 initial nodes
    assert directory.sizes == [5, 4, 4]
    # Ties break to the lowest index.
    assert directory.place_join(None, NodeRole.HONEST, time_step=2)[0] == 1


def test_directory_rejoin_keeps_identity_and_registered_role():
    directory = _directory_with_initial([3, 3])
    shard = directory.remove_leave(0, time_step=1)
    assert shard == 0
    assert directory.sizes == [2, 3]
    # The departed honest node rejoins naming the Byzantine role: same id,
    # the registered role (routed as such), placed like a newcomer
    # (least-loaded shard).
    new_shard, gid, role, fresh = directory.place_join(0, NodeRole.BYZANTINE, time_step=2)
    assert (gid, role, fresh) == (0, NodeRole.HONEST, False)
    assert new_shard == 0
    assert not directory.nodes.is_byzantine(0)
    assert directory.nodes.active_byzantine() == set()


def test_directory_leave_of_unowned_node_rejected():
    directory = _directory_with_initial([2, 2])
    with pytest.raises(ConfigurationError):
        directory.remove_leave(99, time_step=1)


def test_directory_move_transfers_ownership():
    directory = _directory_with_initial([3, 3])
    directory.move(0, 1)
    assert directory.owner[0] == 1
    assert directory.sizes == [2, 4]
    with pytest.raises(ConfigurationError):
        directory.move(99, 0)


def test_directory_fingerprint_tracks_mutations():
    directory = _directory_with_initial([3, 3])
    before = directory.fingerprint()
    directory.move(0, 1)
    assert directory.fingerprint() != before


def test_directory_snapshot_roundtrip():
    directory = _directory_with_initial([3, 2])
    directory.remove_leave(1, time_step=3)
    directory.place_join(None, NodeRole.BYZANTINE, time_step=4)
    restored = ShardDirectory.from_snapshot(directory.snapshot_state())
    assert restored.fingerprint() == directory.fingerprint()


# ----------------------------------------------------------------------
# EventRouter
# ----------------------------------------------------------------------
def _route(router, *events):
    """Route ``events`` as one window; return the routed events."""
    window = router.route_window(EventPull.given(events, 1), limit=len(events))
    return window.routed


def test_router_routes_a_contact_join_to_its_clusters_shard():
    """Cluster 7 of two shards is shard 1's cluster 3: the join goes there,
    not to the least-loaded shard 0, and carries the local id on the wire."""
    router = EventRouter(_directory_with_initial([3, 3]))
    window = router.route_window(EventPull.given([ChurnEvent.join(contact_cluster=7)], 1), limit=1)
    (joined,) = window.routed
    assert (joined.shard, joined.contact) == (1, 7)
    assert [event[-1] for event in iter_events(window.batches[1])] == [3]


def test_router_rejects_anonymous_leaves():
    router = EventRouter(_directory_with_initial([3, 3]))
    with pytest.raises(ConfigurationError, match="must name"):
        _route(router, ChurnEvent.leave(None))


def test_router_stamps_composite_size_after():
    directory = _directory_with_initial([3, 3])
    router = EventRouter(directory)
    joined, left = _route(router, ChurnEvent.join(), ChurnEvent.leave(0))
    assert joined.size_after == 7
    assert left.size_after == 6


# ----------------------------------------------------------------------
# Coordinator guard rails
# ----------------------------------------------------------------------
def _sharded_scenario(**overrides):
    fields = dict(
        name="guard",
        max_size=256,
        initial_size=200,
        tau=0.1,
        seed=3,
        steps=20,
        shards=2,
    )
    fields.update(overrides)
    return Scenario(**fields)


def test_coordinator_paces_a_cluster_aware_adversary():
    """An adversary that reads cluster interiors gets one-event windows; the
    registry-only oblivious one keeps its batched windows."""
    for kind, paced in (("join_leave", True), ("oblivious", False)):
        with ShardCoordinator(_sharded_scenario(adversary={"kind": kind})) as coordinator:
            assert coordinator.paced is paced
            token = coordinator.serve_dispatch(coordinator.pull(10))
            assert (len(token["window"].routed) == 1) is paced
            coordinator.serve_collect(token)


def test_coordinator_rejects_inline_probes():
    probe = CallbackProbe(lambda engine, report, step: None, name="inline-cb")
    with pytest.raises(ConfigurationError, match="inline probes"):
        ShardCoordinator(_sharded_scenario(), probes=[probe])


def test_coordinator_rejects_inline_probe_attached_after_construction():
    """``probes`` is a public list: a late inline probe would be synced into
    the inline lane, never called, and report an empty result — run() refuses."""
    calls = []
    probe = CallbackProbe(lambda engine, report, step: calls.append(step), name="late-inline")
    with ShardCoordinator(_sharded_scenario()) as coordinator:
        coordinator.probes.append(probe)
        with pytest.raises(ConfigurationError, match="inline probes .*late-inline.* not supported"):
            coordinator.run(5)
        assert coordinator.total_events == 0 and calls == []
        coordinator.probes.remove(probe)
        assert coordinator.run(5).events == 5


def test_coordinator_rejects_undersized_slices():
    # 200 nodes over 4 shards = 50 per slice, below the 2-cluster minimum
    # (2 x 24 = 48)... 50 passes; use 8 shards (25 per slice) to trip it.
    with pytest.raises(ConfigurationError, match="two-cluster minimum"):
        ShardCoordinator(_sharded_scenario(shards=8))


def test_coordinator_rejects_unknown_shard_options():
    with pytest.raises(ConfigurationError, match="unknown shard_options"):
        ShardCoordinator(_sharded_scenario(shard_options={"bogus": 1}))


def test_build_runner_refuses_sharded_scenarios():
    with pytest.raises(ConfigurationError, match="shards"):
        _sharded_scenario().build_runner()


def test_scenario_run_dispatches_to_coordinator():
    result = _sharded_scenario(steps=30).run(probes=[CorruptionTrajectoryProbe()])
    assert result.shards == 2
    assert result.steps == 30
    assert "corruption" in result.probes
