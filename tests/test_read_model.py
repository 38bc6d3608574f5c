"""The read model against the paper's reference services.

``serve`` answers ``sample`` / ``broadcast`` from :class:`ShardReadModel`
views; :class:`ClusteredBroadcast` and :class:`SamplingService` are the §6
reference on the live engine.  Built from the same engine state and origin,
the two must report the same reach and the same costs.
"""

from __future__ import annotations

import random

import pytest

from repro import NowEngine, default_parameters
from repro.apps import ClusteredBroadcast, SamplingService
from repro.shard.serve import ShardReadModel, engine_view


class ScriptedDraws:
    """A read stream whose next ``randrange`` results are given."""

    def __init__(self, *values: int) -> None:
        self._values = list(values)

    def randrange(self, bound: int) -> int:
        value = self._values.pop(0)
        assert 0 <= value < bound
        return value


@pytest.fixture(scope="module", params=[300, 1200])
def engine(request):
    params = default_parameters(max_size=4096, k=3.0, tau=0.15, epsilon=0.05)
    return NowEngine.bootstrap(
        params, initial_size=request.param, byzantine_fraction=0.15, seed=7
    )


def one_view_model(engine) -> ShardReadModel:
    return ShardReadModel(
        lambda: [engine_view(engine)], engine.parameters, engine.state.nodes.is_byzantine
    )


def test_broadcast_matches_the_live_flood_from_every_origin(engine):
    model = one_view_model(engine)
    cluster_ids = engine.state.clusters.cluster_ids()
    cluster_count = len(cluster_ids)
    for index, origin in enumerate(cluster_ids):
        # Draws: the shard pick (one view, any node), then the origin's index.
        served = model.broadcast(ScriptedDraws(0, index))
        live = ClusteredBroadcast(engine).broadcast("payload", origin_cluster=origin)
        assert served == {
            "origin_cluster": origin,
            "origin_shard": 0,
            "clusters_reached": len(live.clusters_reached),
            "cluster_count": cluster_count,
            "nodes_reached": live.nodes_reached,
            "coverage": live.coverage(cluster_count),
            "messages": live.messages,
            "rounds": live.rounds,
        }


def test_sample_costs_match_the_live_oracle_walk(engine):
    clusters = engine.state.clusters
    model = one_view_model(engine)
    read_rng = random.Random(1)
    served = {}
    for _ in range(100):
        sample = model.sample(read_rng)
        assert sample["node_id"] in clusters.get(sample["cluster_id"])
        served[len(clusters.get(sample["cluster_id"]))] = (
            sample["messages"], sample["rounds"], sample["walk_hops"],
        )
    service = SamplingService(engine)
    compared = set()
    for _ in range(100):
        live = service.sample()
        size = len(clusters.get(live.cluster_id))
        if size in served:
            assert served[size] == (live.messages, live.rounds, live.walk_hops)
            compared.add(size)
    assert compared
