"""The exchange pass against its member-by-member reference.

Twin engines are restored from one snapshot.  One runs passes through
``ExchangeProtocol.exchange_all``, the other runs
``reference_exchange.reference_exchange_all`` (the v4 round stated plainly)
cluster by cluster, on the same clusters in the same order, a pass's
simulated walks drawn before its first round (``reference_pass``).  After every
pass the two must agree on the summed report fields, the ledger, both RNG
streams (the engine's and the hop engine's), every cluster's slot list and
the node index, and each side's corruption tracker must equal a
from-scratch ``rebuild``.

Hypothesis varies the seed, the walk mode, the churn before the snapshot,
which clusters exchange, whether one cluster is made at least two-thirds
Byzantine, and whether randNum's ``adversary_override`` is installed; one
property runs single-cluster passes, another a leave's cascade (the
departed node's cluster, then every cluster that traded with it, as one
pass).  Deterministic cases check that the paths the properties rely on
are reached (self-draws, a partner picked twice, the override) and hold
the two sides together when a swap is refused mid-way on a corrupted
registry, in a pass's first round or a later one.  A one-sample chi-square
test checks the law of a member's replacement, and mutation cases check
that a slot or a weight that disagrees with the rest of the state is
caught.
"""

from __future__ import annotations

import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_exchange import direct_notification_cost, reference_exchange_all, reference_pass
from repro.analysis.statistics import chi_square_critical
from repro.core.engine import EngineConfig, NowEngine
from repro.core.invariants import check_invariants
from repro.core.exchange import ExchangeProtocol, ExchangeReport, notification_cost
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
            "walk_stream": self.randcl.snapshot_state(),
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
        report.cluster_ids,
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
def test_pass_of_one_cluster_matches_member_by_member_reference(
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
        report = exchange.exchange_all([cluster_id], metrics=engine_side.ledger)
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


def _summed(reports) -> ExchangeReport:
    """The reports of consecutive single-cluster exchanges, as one pass's report."""
    total = ExchangeReport()
    for report in reports:
        total.cluster_ids.extend(report.cluster_ids)
        total.swap_count += report.swap_count
        total.partner_clusters |= report.partner_clusters
        total.messages += report.messages
        total.rounds += report.rounds
        total.walk_hops += report.walk_hops
    return total


def _cascade(engine_side, reference_side, cluster_id):
    """A leave's exchanges: ``cluster_id``, then its partners as one pass on
    the engine side and one by one on the reference side.  Returns the two
    sides' cascade reports and the reference's controlled-pick count."""
    exchange = ExchangeProtocol(engine_side.state, engine_side.randcl, engine_side.randnum)
    first = exchange.exchange_all([cluster_id], metrics=engine_side.ledger)
    expected, _, flags = reference_exchange_all(
        reference_side.state,
        reference_side.randcl,
        reference_side.state.rng,
        cluster_id,
        reference_side.ledger,
        override=reference_side.override,
    )
    assert _report_fields(first) == _report_fields(expected)
    controlled = sum(flags)
    cascade = sorted(first.partner_clusters)
    report = exchange.exchange_all(cascade, metrics=engine_side.ledger)
    reports = []
    for partner_report, _, flags in reference_pass(
        reference_side.state,
        reference_side.randcl,
        reference_side.state.rng,
        cascade,
        reference_side.ledger,
        override=reference_side.override,
    ):
        reports.append(partner_report)
        controlled += sum(flags)
    return report, _summed(reports), controlled


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    walk_mode=st.sampled_from(["oracle", "simulated"]),
    churn=st.integers(0, 12),
    captured=st.booleans(),
    with_override=st.booleans(),
    pick=st.integers(0, 63),
)
def test_cascade_pass_matches_cluster_by_cluster_reference(
    seed, walk_mode, churn, captured, with_override, pick
):
    snapshot = _snapshot(seed, walk_mode, churn, captured)
    engine_side = _Side(snapshot, with_override)
    reference_side = _Side(snapshot, with_override)
    cluster_ids = engine_side.state.clusters.cluster_ids()
    report, expected, controlled = _cascade(
        engine_side, reference_side, cluster_ids[pick % len(cluster_ids)]
    )
    assert _report_fields(report) == _report_fields(expected)
    assert engine_side.observed() == reference_side.observed()
    if with_override:
        assert len(engine_side.override_calls) == controlled
    assert engine_side.tracker_matches_rebuild()
    assert reference_side.tracker_matches_rebuild()


@pytest.mark.parametrize("walk_mode", ["oracle", "simulated"])
def test_cascade_with_override_reaches_a_captured_partner(walk_mode):
    """The cascade property is not vacuous: in each walk mode some seed's
    cascade is a pass of several rounds that picks from a two-thirds
    Byzantine partner through the override, and it still matches."""
    for seed in range(20):
        snapshot = _snapshot(seed, walk_mode, 0, captured=True)
        engine_side, reference_side = _Side(snapshot, True), _Side(snapshot, True)
        start = engine_side.state.clusters.cluster_ids()[0]
        report, expected, controlled = _cascade(engine_side, reference_side, start)
        assert _report_fields(report) == _report_fields(expected)
        assert engine_side.observed() == reference_side.observed()
        assert len(engine_side.override_calls) == controlled
        if controlled and len(report.cluster_ids) > 1:
            return
    raise AssertionError("no cascade reached a captured partner")


def test_override_path_is_reached():
    """The captured-cluster case above is not vacuous: some seed's rounds
    pick from a two-thirds Byzantine partner with the override installed."""
    for seed in range(20):
        side = _Side(_snapshot(seed, "oracle", 0, captured=True), with_override=True)
        exchange = ExchangeProtocol(side.state, side.randcl, side.randnum)
        for cluster_id in side.state.clusters.cluster_ids()[:-1]:
            exchange.exchange_all([cluster_id], metrics=side.ledger)
        if side.override_calls:
            members, bound = side.override_calls[0]
            assert bound == len(members) == len(set(members))
            return
    raise AssertionError("no round reached a captured partner")


def _record_endpoints(side) -> list:
    """Log the cluster every walk of ``side``'s exchange passes lands on."""
    endpoints = []
    randcl = side.randcl
    oracle_walks, pass_walks = randcl.oracle_walks, randcl.pass_walks

    def recording_walks(starts):
        rows, cost = pass_walks(starts)
        vertices = side.state.overlay.graph.csr().vertices
        endpoints.extend(vertices[row] for row in rows)
        return rows, cost

    def recording_oracle(start_cluster):
        draw, layout, cost = oracle_walks(start_cluster)
        cum, _, total = layout.population()

        def recorded(bits):
            # The row this draw selects, when the pass keeps it.
            value = draw(bits)
            if value < total:
                endpoints.append(layout.vertices[bisect_right(cum, value)])
            return value

        return recorded, layout, cost

    randcl.pass_walks, randcl.oracle_walks = recording_walks, recording_oracle
    return endpoints


@pytest.mark.parametrize("walk_mode", ["oracle", "simulated"])
def test_self_draws_and_repeated_partners_are_reached(walk_mode):
    """The passes above are not vacuous: in each walk mode some round draws
    its own cluster, and some round picks from one partner twice."""
    self_draw = repeated_partner = False
    for seed in range(10):
        side = _Side(_snapshot(seed, walk_mode, 0, captured=False), with_override=False)
        endpoints = _record_endpoints(side)
        exchange = ExchangeProtocol(side.state, side.randcl, side.randnum)
        for cluster_id in side.state.clusters.cluster_ids():
            endpoints.clear()
            report = exchange.exchange_all([cluster_id], metrics=side.ledger)
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
def test_pass_refused_midway_matches_reference(walk_mode):
    """A corrupted registry: the exchanging cluster's last member also sits in
    a slot of every other cluster, unknown to the node index, so a pick of
    that slot is refused.  The pass raises the reference's exception class
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
        raised = _raised(lambda: exchange.exchange_all([cluster_id], metrics=engine_side.ledger))
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


@pytest.mark.parametrize("walk_mode", ["oracle", "simulated"])
def test_pass_refused_in_a_later_round_keeps_the_earlier_rounds(walk_mode):
    """A corrupted registry: the first slot of the pass's second cluster
    holds a node the node index places in a third cluster, so a swap of that
    slot is refused.  The pass ``[first, second]`` raises the class the
    reference raises exchanging ``first`` then ``second``, with the same
    swaps made (earlier rounds' included), the same streams, and every move
    in the tracker; a refused pass charges nothing."""
    later = 0
    for seed in range(8):
        snapshot = _snapshot(seed, walk_mode, 0, captured=False)
        engine_side, reference_side = _Side(snapshot, False), _Side(snapshot, False)
        first, second, third = engine_side.state.clusters.cluster_ids()[:3]
        for side in (engine_side, reference_side):
            clusters = side.state.clusters
            clusters.get(second).members[0] = clusters.get(third).members[0]
            side.state.corruption.rebuild()
        exchange = ExchangeProtocol(engine_side.state, engine_side.randcl, engine_side.randnum)
        raised = _raised(lambda: exchange.exchange_all([first, second], metrics=engine_side.ledger))

        def both_rounds():
            reference_pass(
                reference_side.state,
                reference_side.randcl,
                reference_side.state.rng,
                [first, second],
                reference_side.ledger,
            )

        assert raised is _raised(both_rounds)
        engine, reference = engine_side.observed(), reference_side.observed()
        if raised is not None:
            assert engine["ledger"] == CommunicationMetrics().snapshot()
            engine["ledger"] = reference["ledger"]
            later += reference_side.state.clusters.get(first).exchanges_performed
        assert engine == reference
        assert engine_side.tracker_matches_rebuild()
        assert reference_side.tracker_matches_rebuild()
    assert later, "no pass was refused after its first round"


def test_notification_cost_matches_direct_sum_on_golden_schedule(monkeypatch):
    """Every ``notification_cost`` call of the golden schedule
    (``tests/test_exchange_golden.py``, splits and merges included) equals
    the direct bipartite sum over live neighbours.  (The exchange pass
    prices its own notifications; the reference properties above hold
    them to the same sum.)"""
    calls = []

    def checked(state, cluster_ids):
        cluster_ids = list(cluster_ids)
        cost = notification_cost(state, cluster_ids)
        calls.append(cost == direct_notification_cost(state, cluster_ids))
        return cost

    monkeypatch.setattr("repro.core.operations.notification_cost", checked)
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
    assert restructured and len(calls) >= 700  # at least one per event
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
        exchange.exchange_all([cluster_id], metrics=CommunicationMetrics())
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
            exchange.exchange_all([first], metrics=side.ledger)
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
            exchange.exchange_all([cluster_id], metrics=side.ledger)
        except ReproError as error:
            assert "overlay weight" in str(error)
            assert clusters.get(target).members == target_slots
            return
    raise AssertionError("no round drew the mis-weighted partner")
