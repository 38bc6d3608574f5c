"""The exchange round against its member-by-member reference.

Twin engines are restored from one snapshot.  One runs rounds through
``ExchangeProtocol.exchange_all``, the other through
``reference_exchange.reference_exchange_all`` (the round as it ran before
per-round resolution), on the same clusters in the same order.  After every
round the two must agree on the swaps, the partner set, every report field,
the ledger, the RNG state, the partition and the node index, and each side's
corruption tracker must equal a from-scratch ``rebuild``.

Hypothesis varies the seed, the walk mode, the churn before the snapshot,
which clusters exchange, whether one cluster is made at least two-thirds
Byzantine, and whether randNum's ``adversary_override`` is installed.
Deterministic cases check that the paths the property relies on are
reached (self-draws, a partner picked twice, the override) and hold the two
rounds together when a swap is refused mid-way on a corrupted registry.
"""

from __future__ import annotations

import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_exchange import direct_notification_cost, reference_exchange_all
from repro.core.engine import EngineConfig, NowEngine
from repro.core.exchange import ExchangeProtocol, notification_cost, row_notification_cost
from repro.core.randcl import RandCl
from repro.core.randnum import RandNum
from repro.errors import ReproError
from repro.network.metrics import CommunicationMetrics
from repro.network.node import NodeRole
from repro.params import ProtocolParameters
from repro.walks.sampler import WalkMode


def _snapshot(seed: int, walk_mode: str, churn: int, captured: bool) -> dict:
    params = ProtocolParameters(max_size=1024, tau=0.1)
    engine = NowEngine.bootstrap(params, 120, seed=seed, config=EngineConfig(walk_mode=walk_mode))
    rng = random.Random(seed)
    for step in range(churn):
        if step % 2:
            engine.leave(engine.random_member(rng=rng))
        else:
            engine.join(role=NodeRole.BYZANTINE if rng.random() < 0.2 else NodeRole.HONEST)
    if captured:
        # One cluster at least two-thirds Byzantine: randNum's security
        # threshold is crossed whenever a round picks from it.
        victim = engine.state.clusters.cluster_ids()[-1]
        for node_id in engine.state.clusters.get(victim).member_list()[1:]:
            engine.state.nodes.get(node_id).role = NodeRole.BYZANTINE
    return engine.capture_snapshot()


class _Side:
    """One twin: its state, its own randCl/randNum and an override call log."""

    def __init__(self, snapshot: dict, with_override: bool) -> None:
        self.state = NowEngine.restore(snapshot).state
        self.override_calls = []
        self.override = self._override if with_override else None
        self.randnum = RandNum(self.state.rng, adversary_override=self.override)
        mode = WalkMode(snapshot["config"]["walk_mode"])
        self.randcl = RandCl(self.state, self.randnum, walk_mode=mode)
        self.randcl.restore_state(snapshot["randcl"])
        self.ledger = CommunicationMetrics()

    def _override(self, members, bound):
        self.override_calls.append((list(members), bound))
        return len(members) - 1  # the adversary sends out its highest id

    def observed(self) -> dict:
        clusters = self.state.clusters
        for cluster_id in clusters.cluster_ids():
            cluster = clusters.get(cluster_id)
            assert cluster.sorted_members() == sorted(cluster.members), cluster_id
        return {
            "rng": self.state.rng.getstate(),
            "partition": {cid: clusters.get(cid).member_list() for cid in clusters.cluster_ids()},
            "node_index": {
                node: clusters.cluster_of(node) for node in self.state.nodes.active_nodes()
            },
            "ledger": self.ledger.snapshot(),
            "override_calls": self.override_calls,
        }

    def tracker_matches_rebuild(self) -> bool:
        corruption = self.state.corruption
        incremental = (corruption.fractions(), corruption.compromised(), corruption.worst_fraction())
        corruption.rebuild()
        rebuilt = (corruption.fractions(), corruption.compromised(), corruption.worst_fraction())
        return incremental == rebuilt


def _report_fields(report) -> tuple:
    return (
        report.cluster_id,
        report.swaps,
        report.partner_clusters,
        report.messages,
        report.rounds,
        report.walk_hops,
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    walk_mode=st.sampled_from(["oracle", "simulated"]),
    churn=st.integers(0, 12),
    captured=st.booleans(),
    with_override=st.booleans(),
    picks=st.lists(st.integers(0, 63), min_size=1, max_size=6),
)
def test_round_matches_member_by_member_reference(
    seed, walk_mode, churn, captured, with_override, picks
):
    snapshot = _snapshot(seed, walk_mode, churn, captured)
    engine_side = _Side(snapshot, with_override)
    reference_side = _Side(snapshot, with_override)
    exchange = ExchangeProtocol(engine_side.state, engine_side.randcl, engine_side.randnum)
    controlled = 0
    for pick in picks:
        cluster_ids = engine_side.state.clusters.cluster_ids()
        cluster_id = cluster_ids[pick % len(cluster_ids)]
        report = exchange.exchange_all(cluster_id, metrics=engine_side.ledger)
        expected, flags = reference_exchange_all(
            reference_side.state,
            reference_side.randcl,
            reference_side.state.rng,
            cluster_id,
            reference_side.ledger,
            override=reference_side.override,
        )
        controlled += sum(flags)
        assert _report_fields(report) == _report_fields(expected)
        assert engine_side.observed() == reference_side.observed()
    if with_override:
        assert len(engine_side.override_calls) == controlled
    assert engine_side.tracker_matches_rebuild()
    assert reference_side.tracker_matches_rebuild()


def test_override_path_is_reached():
    """The captured-cluster case above is not vacuous: some seed's rounds
    pick from a two-thirds Byzantine partner with the override installed."""
    for seed in range(20):
        side = _Side(_snapshot(seed, "oracle", 0, captured=True), with_override=True)
        exchange = ExchangeProtocol(side.state, side.randcl, side.randnum)
        for cluster_id in side.state.clusters.cluster_ids()[:-1]:
            exchange.exchange_all(cluster_id, metrics=side.ledger)
        if side.override_calls:
            members, bound = side.override_calls[0]
            assert bound == len(members) and members == sorted(members)
            return
    raise AssertionError("no round reached a captured partner")


def _record_endpoints(randcl) -> list:
    """Log the cluster every walk of ``randcl``'s exchange rounds lands on."""
    endpoints = []
    round_partners = randcl.round_partners

    def recording(start_cluster, count):
        draws, vertices, cost = round_partners(start_cluster, count)
        if isinstance(draws, list):
            endpoints.extend(vertices[row] for row in draws)
            return draws, vertices, cost
        cum, total, last, random = draws

        def recorded():
            # The row this uniform selects, drawn when the round pulls it.
            value = random()
            endpoints.append(vertices[bisect_right(cum, value * total, 0, last)])
            return value

        return draws._replace(random=recorded), vertices, cost

    randcl.round_partners = recording
    return endpoints


@pytest.mark.parametrize("walk_mode", ["oracle", "simulated"])
def test_self_draws_and_repeated_partners_are_reached(walk_mode):
    """The rounds above are not vacuous: in each walk mode some round draws
    its own cluster, and some round picks from one partner twice."""
    self_draw = repeated_partner = False
    for seed in range(10):
        side = _Side(_snapshot(seed, walk_mode, 0, captured=False), with_override=False)
        endpoints = _record_endpoints(side.randcl)
        exchange = ExchangeProtocol(side.state, side.randcl, side.randnum)
        for cluster_id in side.state.clusters.cluster_ids():
            endpoints.clear()
            report = exchange.exchange_all(cluster_id, metrics=side.ledger)
            partners = [partner_id for _, partner_id, _ in report.swaps]
            self_draw |= cluster_id in endpoints
            repeated_partner |= len(set(partners)) < len(partners)
        if self_draw and repeated_partner:
            return
    raise AssertionError(f"self-draw reached: {self_draw}, repeated partner: {repeated_partner}")


def _raised(call):
    try:
        call()
    except ReproError as error:
        return type(error)
    return None


@pytest.mark.parametrize("walk_mode", ["oracle", "simulated"])
def test_round_refused_midway_matches_reference(walk_mode):
    """A corrupted registry: the exchanging cluster's last member also sits in
    every other cluster, so its own swap, or a pick of it, is refused.  The
    round raises the reference's exception class after the same applied
    swaps, and each side's tracker still equals a rebuild."""
    after_prefix = 0
    for seed in range(8):
        snapshot = _snapshot(seed, walk_mode, 0, captured=False)
        engine_side, reference_side = _Side(snapshot, False), _Side(snapshot, False)
        cluster_id = engine_side.state.clusters.cluster_ids()[0]
        for side in (engine_side, reference_side):
            clusters = side.state.clusters
            intruder = clusters.get(cluster_id).member_list()[-1]
            for other_id in clusters.cluster_ids():
                if other_id != cluster_id:
                    clusters.get(other_id).add_member(intruder)
                    side.state.sync_overlay_weight(other_id)
            side.state.corruption.rebuild()
        before = engine_side.state.clusters.get(cluster_id).member_list()
        exchange = ExchangeProtocol(engine_side.state, engine_side.randcl, engine_side.randnum)
        raised = _raised(lambda: exchange.exchange_all(cluster_id, metrics=engine_side.ledger))
        expected = _raised(
            lambda: reference_exchange_all(
                reference_side.state,
                reference_side.randcl,
                reference_side.state.rng,
                cluster_id,
                reference_side.ledger,
            )
        )
        assert raised is expected
        assert engine_side.observed() == reference_side.observed()
        assert engine_side.tracker_matches_rebuild()
        assert reference_side.tracker_matches_rebuild()
        if raised is not None:
            after_prefix += engine_side.state.clusters.get(cluster_id).member_list() != before
    assert after_prefix, "no round was refused after applying a swap"


def test_notification_cost_matches_direct_sum_on_golden_schedule(monkeypatch):
    """Every ``notification_cost`` call of the golden schedule
    (``tests/test_exchange_golden.py``, splits and merges included), and
    every ``row_notification_cost`` call the exchange round makes with the
    rows and sizes of its partner table, equals the direct bipartite sum
    over live neighbours."""
    calls = []

    def checked(state, cluster_ids):
        cluster_ids = list(cluster_ids)
        cost = notification_cost(state, cluster_ids)
        calls.append(cost == direct_notification_cost(state, cluster_ids))
        return cost

    def checked_rows(layout, rows, sizes):
        # The exchange round's entry: rows and sizes it already holds.
        cluster_ids = [layout.vertices[row] for row in rows]
        clusters = engine.state.clusters
        cost = row_notification_cost(layout, rows, sizes)
        calls.append(
            sizes == [len(clusters.get(cluster_id)) for cluster_id in cluster_ids]
            and cost == direct_notification_cost(engine.state, cluster_ids)
        )
        return cost

    monkeypatch.setattr("repro.core.exchange.notification_cost", checked)
    monkeypatch.setattr("repro.core.operations.notification_cost", checked)
    monkeypatch.setattr("repro.core.exchange.row_notification_cost", checked_rows)
    params = ProtocolParameters(max_size=1024, tau=0.1)
    engine = NowEngine.bootstrap(params, 200, seed=5, config=EngineConfig(walk_mode="oracle"))
    rng = random.Random(9)
    restructured = 0
    for i in range(700):
        if i < 350 or i % 3 == 0:
            role = NodeRole.BYZANTINE if rng.random() < 0.1 else NodeRole.HONEST
            report = engine.join(role=role)
        else:
            report = engine.leave(engine.random_member(rng=rng))
        flat = report.operation.operations_flat()
        restructured += any(name in ("split", "merge") for name in flat)
    assert restructured and len(calls) > 1000
    assert all(calls)
