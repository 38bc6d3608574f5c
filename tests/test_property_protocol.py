"""Property-based tests for protocol-level invariants.

These drive the NOW engine and the OVER overlay with hypothesis-generated
churn sequences and assert the invariants the paper's theorems are about:
the partition stays valid, cluster sizes stay within the split/merge band,
the overlay stays connected with bounded degree, and the exchange primitive
preserves the multiset of nodes.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import NowEngine, default_parameters
from repro.core.exchange import ExchangeProtocol
from repro.core.randcl import RandCl
from repro.core.state import SystemState
from repro.network.node import NodeRole
from repro.params import ProtocolParameters
from repro.walks.sampler import WalkMode


def build_engine(seed: int) -> NowEngine:
    params = default_parameters(max_size=1024, k=2.0, tau=0.1, epsilon=0.05)
    return NowEngine.bootstrap(params, initial_size=100, byzantine_fraction=0.1, seed=seed)


@given(
    seed=st.integers(min_value=0, max_value=50),
    churn=st.lists(st.booleans(), min_size=5, max_size=25),
)
@settings(max_examples=20, deadline=None)
def test_engine_keeps_partition_and_size_band_under_arbitrary_churn(seed, churn):
    engine = build_engine(seed)
    for is_join in churn:
        if is_join or engine.network_size <= engine.parameters.lower_size_bound:
            engine.join()
        else:
            engine.leave(engine.random_member())
        report = engine.check_invariants(check_honest_majority=False)
        assert report.holds, report.violations


@given(
    seed=st.integers(min_value=0, max_value=30),
    cluster_count=st.integers(min_value=3, max_value=6),
    cluster_size=st.integers(min_value=5, max_value=10),
)
@settings(max_examples=20, deadline=None)
def test_exchange_preserves_node_multiset(seed, cluster_count, cluster_size):
    params = ProtocolParameters(max_size=1024, k=2.0, tau=0.2, epsilon=0.05)
    state = SystemState(parameters=params, rng=random.Random(seed))
    cluster_ids = []
    for _ in range(cluster_count):
        members = []
        for index in range(cluster_size):
            role = NodeRole.BYZANTINE if index == 0 else NodeRole.HONEST
            members.append(state.nodes.register(role=role).node_id)
        cluster_ids.append(state.clusters.create_cluster(members).cluster_id)
    state.overlay.bootstrap(
        cluster_ids, weights=[float(cluster_size)] * cluster_count
    )
    nodes_before = set(state.nodes.active_nodes())
    sizes_before = state.clusters.sizes()

    randcl = RandCl(state, walk_mode=WalkMode.ORACLE)
    exchange = ExchangeProtocol(state, randcl)
    for cluster_id in cluster_ids:
        exchange.exchange_all([cluster_id])

    # Exchange moves nodes around but never creates, destroys or duplicates them.
    nodes_after = set()
    for cluster in state.clusters.clusters():
        assert nodes_after.isdisjoint(cluster.members)
        nodes_after.update(cluster.members)
    assert nodes_after == nodes_before
    assert state.clusters.sizes() == sizes_before


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_initial_partition_cluster_sizes_within_band(seed):
    params = default_parameters(max_size=1024, k=2.0, tau=0.1, epsilon=0.05)
    engine = NowEngine.bootstrap(params, initial_size=110, byzantine_fraction=0.1, seed=seed)
    sizes = list(engine.cluster_sizes().values())
    assert sum(sizes) == 110
    for size in sizes:
        assert params.merge_threshold <= size <= params.split_threshold
    assert engine.state.overlay.graph.is_connected()
    assert engine.state.overlay.graph.max_degree() <= params.overlay_degree_cap


@given(
    seed=st.integers(min_value=0, max_value=100),
    tau=st.floats(min_value=0.0, max_value=0.28),
)
@settings(max_examples=25, deadline=None)
def test_bootstrap_respects_requested_byzantine_fraction(seed, tau):
    params = default_parameters(max_size=1024, k=2.0, tau=0.28, epsilon=0.05)
    engine = NowEngine.bootstrap(params, initial_size=120, byzantine_fraction=tau, seed=seed)
    achieved = engine.state.nodes.byzantine_fraction()
    assert abs(achieved - tau) <= 1.0 / 120 + 1e-9
