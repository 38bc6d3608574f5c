"""The exchange round against its member-by-member reference.

Twin engines are restored from one snapshot.  One runs rounds through
``ExchangeProtocol.exchange_all``, the other through
``reference_exchange.reference_exchange_all`` (the v3 round stated plainly),
on the same clusters in the same order.  After every round the two must
agree on every report field, the ledger, the RNG state, every cluster's
slot list and the node index, and each side's corruption tracker must equal
a from-scratch ``rebuild``.

Hypothesis varies the seed, the walk mode, the churn before the snapshot,
which clusters exchange, whether one cluster is made at least two-thirds
Byzantine, and whether randNum's ``adversary_override`` is installed.
Deterministic cases check that the paths the property relies on are
reached (self-draws, a partner picked twice, the override) and hold the two
rounds together when a swap is refused mid-way on a corrupted registry.  A
one-sample chi-square test checks the law of a member's replacement, and
mutation cases check that a slot or a weight that disagrees with the rest
of the state is caught.
"""

from __future__ import annotations

import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_exchange import direct_notification_cost, reference_exchange_all
from repro.analysis.statistics import chi_square_critical
from repro.core.engine import EngineConfig, NowEngine
from repro.core.invariants import check_invariants
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
        return {
            "rng": self.state.rng.getstate(),
            "slots": {cid: list(clusters.get(cid).members) for cid in clusters.cluster_ids()},
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
        report.swap_count,
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
        expected, _, flags = reference_exchange_all(
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
            assert bound == len(members) == len(set(members))
            return
    raise AssertionError("no round reached a captured partner")


def _record_endpoints(randcl) -> list:
    """Log the cluster every walk of ``randcl``'s exchange rounds lands on."""
    endpoints = []
    round_partners = randcl.round_partners

    def recording(start_cluster, count):
        partners, layout, cost = round_partners(start_cluster, count)
        if isinstance(partners, list):
            endpoints.extend(layout.vertices[row] for row in partners)
            return partners, layout, cost
        cum, _, total = layout.population()

        def recorded(bits):
            # The row this draw selects, when the round keeps it.
            value = partners(bits)
            if value < total:
                endpoints.append(layout.vertices[bisect_right(cum, value)])
            return value

        return recorded, layout, cost

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
            self_draw |= cluster_id in endpoints
            repeated_partner |= report.swap_count > len(report.partner_clusters)
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
    a slot of every other cluster, unknown to the node index, so a pick of
    that slot is refused.  The round raises the reference's exception class
    after the same applied swaps, and each side's tracker still equals a
    rebuild."""
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


def test_first_member_replacement_law():
    """One-sample chi-square test of the law Lemma 1 rests on.

    Under oracle walks the first member of the exchanging cluster ``C`` stays
    with probability ``|C| / n`` and is otherwise replaced by each node
    outside ``C`` with probability ``1 / n``.  Swaps keep every size, so
    12 000 rounds of ``C`` on one engine (n = 120, |C| = 20) are 12 000
    independent draws over the same 101 categories: "stays", and the rank
    of the replacement among the nodes outside ``C`` at the round's start.
    Level 0.001 (the Wilson–Hilferty critical value at z = 3.09, 100
    degrees of freedom).  Power, from 4 000 simulated samples of each
    alternative: 0.96 against a stay probability of 0.2 instead of 1/6,
    and 0.93 against a replacement law that gives half of the outside
    nodes 1.2x the weight of the other half.
    """
    engine = NowEngine.bootstrap(
        ProtocolParameters(max_size=1024, tau=0.1), 120, seed=3,
        config=EngineConfig(walk_mode="oracle"),
    )
    state = engine.state
    clusters = state.clusters
    cluster_id = clusters.cluster_ids()[0]
    slots = clusters.get(cluster_id).members
    size, n = len(slots), state.network_size
    assert (size, n) == (20, 120)
    exchange = ExchangeProtocol(state, engine._randcl, engine._randnum)
    samples = 12000
    counts = [0] * (n - size + 1)  # counts[0]: the member stayed
    for _ in range(samples):
        first = slots[0]
        outside = sorted(set(state.nodes.active_nodes()) - set(slots))
        exchange.exchange_all(cluster_id, metrics=CommunicationMetrics())
        counts[0 if slots[0] == first else 1 + outside.index(slots[0])] += 1
    expected = [samples * size / n] + [samples / n] * (n - size)
    statistic = sum((seen - mean) ** 2 / mean for seen, mean in zip(counts, expected))
    assert statistic < chi_square_critical(len(counts) - 1)


def _oracle_side(seed: int = 1) -> "_Side":
    return _Side(_snapshot(seed, "oracle", 0, captured=False), with_override=False)


def test_slot_the_node_index_disagrees_with_is_caught():
    """Mutation: a slot holding a node the node index places elsewhere.
    ``check_invariants`` names it.  The slot is the exchanging cluster's
    first, so a round that swaps it refuses at once and changes nothing; a
    member that draws its own cluster stays unchecked, so on some seeds the
    round passes the slot by and runs to the end."""
    refused = 0
    for seed in range(6):
        side = _oracle_side(seed)
        clusters = side.state.clusters
        first, second = clusters.cluster_ids()[:2]
        stranger = clusters.get(second).members[0]
        slots = clusters.get(first).members
        lost = slots[0]
        slots[0] = stranger  # the index still places ``stranger`` in ``second``
        side.state.corruption.rebuild()
        violations = check_invariants(side.state).violations
        assert f"node {stranger} appears in clusters {first} and {second}" in violations
        assert f"active node {lost} is not assigned to any cluster" in violations

        before = side.observed()
        exchange = ExchangeProtocol(side.state, side.randcl, side.randnum)
        try:
            exchange.exchange_all(first, metrics=side.ledger)
        except ReproError as error:
            assert str(stranger) in str(error)
            after = side.observed()
            assert after == dict(before, rng=after["rng"])
            refused += 1
        assert side.tracker_matches_rebuild()
    assert refused, "no round reached the stranger's slot with a swap"


def test_partner_whose_slot_count_is_not_its_weight_is_refused():
    """Mutation: a cluster whose overlay weight lags its slots.  The first
    round that draws it as a partner refuses before swapping with it, and
    ``check_invariants`` names the stale weight."""
    side = _oracle_side()
    state, clusters = side.state, side.state.clusters
    target = clusters.cluster_ids()[-1]
    node = state.nodes.register().node_id
    clusters.get(target).add_member(node)  # no weight sync, no node index
    clusters._node_to_cluster[node] = target
    state.corruption.rebuild()
    assert any(f"overlay weight of cluster {target}" in v for v in check_invariants(state).violations)

    exchange = ExchangeProtocol(state, side.randcl, side.randnum)
    for cluster_id in clusters.cluster_ids()[:-1]:
        target_slots = list(clusters.get(target).members)
        try:
            exchange.exchange_all(cluster_id, metrics=side.ledger)
        except ReproError as error:
            assert "overlay weight" in str(error)
            assert clusters.get(target).members == target_slots
            return
    raise AssertionError("no round drew the mis-weighted partner")
