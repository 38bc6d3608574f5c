"""One role per identity, on every backend.

A node keeps the role it was registered with for its whole life.  ``NowEngine``
has always done so on a rejoin, under every placement rule, whatever role the
join event names; the shard directory now does too, and routes the registered role
to the shard engines — at a rejoin and at every barrier move.  The live
session applies the same rule before anything is dispatched: a rejoin that
names no role takes the registered one, and a rejoin that names another is
refused with ``failed``.
"""

from __future__ import annotations

import pytest

from repro.core.events import ChurnEvent
from repro.network.node import NodeRole
from repro.service import live_scenario
from repro.service.protocol import ERROR_FAILED, ProtocolError
from repro.shard import ShardCoordinator, ShardReadModel
from repro.shard.messages import cluster_name
from repro.trace import open_driver

from service_helpers import SIZES, make_session

BARRIER = 14


def _engine_is_byzantine(driver, node):
    """``is_byzantine`` of ``node`` as the engine that hosts it reads it."""
    if not isinstance(driver, ShardCoordinator):
        return driver.engine.state.nodes.is_byzantine(node)
    shard = driver.directory.owner[node]
    slot = driver._transport_of[shard].worker.slots[shard]
    return slot.engine.state.nodes.is_byzantine(slot.g2l[node])


def _engines(driver):
    """``(engine, local -> global)`` per read view, in view order."""
    if not isinstance(driver, ShardCoordinator):
        return [(driver.engine, lambda local: local)]
    slots = [
        driver._transport_of[shard].worker.slots[shard]
        for shard in range(driver.shards)
    ]
    return [(slot.engine, slot.l2g.__getitem__) for slot in slots]


@pytest.mark.parametrize("shards", [0, 1, 2])
def test_rejoin_naming_another_role_keeps_the_registered_one(shards):
    options = {"barrier_interval": BARRIER, "rebalance_threshold": 1} if shards else {}
    scenario = live_scenario(seed=4, shards=shards, shard_options=options, **SIZES)
    with open_driver(scenario) as driver:
        nodes = driver.nodes
        honest = [gid for gid in range(SIZES["initial_size"]) if not nodes.is_byzantine(gid)]
        low, top = honest[0], honest[-1]
        # Both honest nodes leave and rejoin naming the Byzantine role.  Then
        # ten leaves from the low end make the low shard the smaller one, so
        # at shards=2 the barrier moves the high shard's largest gids — top
        # among them — to it.
        events = [
            ChurnEvent.leave(low),
            ChurnEvent.join(role=NodeRole.BYZANTINE, node_id=low),
            ChurnEvent.leave(top),
            ChurnEvent.join(role=NodeRole.BYZANTINE, node_id=top),
        ]
        events += [ChurnEvent.leave(gid) for gid in range(1, 100) if gid != low][:10]
        assert len(events) == BARRIER
        driver.collect(driver.dispatch(events))
        if shards == 2:
            assert driver.barriers_run == 1
            assert driver.directory.owner[top] == 0  # moved by the barrier
        for node in (low, top):
            assert not nodes.is_byzantine(node)
            assert not _engine_is_byzantine(driver, node)
        # The read model's Byzantine counts and members agree with every
        # engine's, each cluster under its composite name.
        views = ShardReadModel(driver.read_views, driver.params, nodes.is_byzantine).ensure()
        for view, (engine, to_global) in zip(views, _engines(driver)):
            for cluster in engine.state.clusters.clusters():
                name = cluster_name(view.shard, cluster.cluster_id, shards)
                expected = sum(map(engine.state.nodes.is_byzantine, cluster.members))
                assert view.byzantine[name] == expected
                assert sorted(map(to_global, cluster.members)) == sorted(view.clusters[name])


@pytest.mark.parametrize("backend", ["single", "shards=2"])
def test_session_rejoin_takes_the_registered_role_or_is_refused(backend):
    session = make_session(backend)
    try:
        nodes = session.driver.nodes
        byzantine = min(nodes.active_byzantine())
        honest = next(gid for gid in range(200) if not nodes.is_byzantine(gid))
        for node in (byzantine, honest):
            session.execute({"op": "leave", "node_id": node})
        with pytest.raises(ProtocolError) as refused:
            session.execute({"op": "join", "node_id": byzantine, "role": "honest"})
        assert refused.value.code == ERROR_FAILED
        assert "registered byzantine" in refused.value.message
        applied = session.events_applied
        with pytest.raises(ProtocolError, match="registered honest"):
            session.execute({"op": "join", "node_id": honest, "role": "byzantine"})
        assert session.events_applied == applied  # refused pre-flight
        # Naming no role, or the registered one, rejoins with that role.
        session.execute({"op": "join", "node_id": byzantine})
        session.execute({"op": "join", "node_id": honest, "role": "honest"})
        assert nodes.is_active(byzantine) and nodes.is_byzantine(byzantine)
        assert nodes.is_active(honest) and not nodes.is_byzantine(honest)
        # A fresh named identity still takes the role its frame gives.
        session.execute({"op": "join", "node_id": 5000, "role": "byzantine"})
        assert nodes.is_byzantine(5000)
    finally:
        session.close()
