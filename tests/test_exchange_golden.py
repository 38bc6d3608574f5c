"""Golden values of the exchange round, in both walk modes.

One schedule drives a bootstrapped engine through growth, shrinkage and
splits: 700 events from ``random.Random(9)`` on a 200-node start, a join
(Byzantine with probability 0.1) at ``i < 350`` and on every third step after
that, otherwise the departure of a random member.  Every one of its ~95 000
member swaps goes through ``ExchangeProtocol.exchange_all``.  The tests pin,
per walk mode, the final state hash, a digest of the per-event
``(messages, rounds, walk_hops, exchanged_nodes)`` tuples and a digest of the
cost ledgers; any rewrite of the round must reproduce them bit for bit.

The same run pins one known gap in the cost accounting: the ``randCl`` walks
OVER runs to choose the edges of a split's new cluster (or a merge's
replacement edges) are charged to the ledger but never added to the operation
report.  A test pins how an exchange round draws oracle walks
(``RandCl.round_partners``): lazily, one per call, exactly as a ``select``
would.  A last one resumes an oracle-walk checkpoint cut by an earlier
version of the round onto that version's straight-run hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil

import pytest

from repro.core.engine import EngineConfig, NowEngine
from repro.core.randcl import RandCl
from repro.network.node import NodeRole
from repro.params import ProtocolParameters
from repro.scenarios import Scenario
from repro.trace import resume_from_checkpoint
from repro.trace.hashing import canonical_json


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _bootstrap(walk_mode: str) -> NowEngine:
    params = ProtocolParameters(max_size=1024, tau=0.1)
    return NowEngine.bootstrap(params, 200, seed=5, config=EngineConfig(walk_mode=walk_mode))


def _run_schedule(walk_mode: str) -> dict:
    """The golden schedule; per event: report tuple, ledger delta, split/merge flag."""
    engine = _bootstrap(walk_mode)
    rng = random.Random(9)
    rows, deltas, restructured = [], [], []
    for i in range(700):
        before = engine.metrics.total().messages
        if i < 350 or i % 3 == 0:
            role = NodeRole.BYZANTINE if rng.random() < 0.1 else NodeRole.HONEST
            report = engine.join(role=role)
        else:
            report = engine.leave(engine.random_member(rng=rng))
        operation = report.operation
        rows.append(
            (operation.messages, operation.rounds, operation.walk_hops, operation.exchanged_nodes)
        )
        deltas.append(engine.metrics.total().messages - before)
        restructured.append(
            any(name in ("split", "merge") for name in operation.operations_flat())
        )
    return {
        "state_hash": engine.state_hash(),
        "reports": _sha(repr(rows)),
        "ledger": _sha(canonical_json(engine.metrics.snapshot())),
        "rows": rows,
        "deltas": deltas,
        "restructured": restructured,
    }


@pytest.fixture(scope="module", params=["oracle", "simulated"])
def golden_run(request):
    return request.param, _run_schedule(request.param)


GOLDEN = {
    "oracle": {
        "state_hash": "7edcae7ed43abe81d7645a5edbeefd9e5e6c7ca5f2171f7667b559b34bd868fe",
        "reports": "012c85c0a99f5aa2c5d51d96e69a0fa44f6f88db2b040b40607adfba5a802bd4",
        "ledger": "84da4fc6f900f0bb2e531e57eea8e4b6cb684d1b080558d907a086aa7f239d84",
    },
    "simulated": {
        "state_hash": "d81c95222e68649d9b0a3c87132fb8077709ece28629c986874348d6ab80f7f3",
        "reports": "e57bfa4fbb1016bbd24a0686740f5fb46a455c39226ad7bf9ad0735c64f59ac1",
        "ledger": "c851da3023e14a55a209428d62a9bf6c4035e0e4fec4fa9c1ce168eb56cfdc05",
    },
}

#: Ledger minus reported messages over the schedule, and its split count.
UNREPORTED_OVER_WALKS = {"oracle": (78_460_629, 9), "simulated": (86_371_202, 10)}


def test_golden_hashes(golden_run):
    walk_mode, run = golden_run
    observed = {key: run[key] for key in GOLDEN[walk_mode]}
    assert observed == GOLDEN[walk_mode]


def test_split_and_merge_walks_reach_the_ledger_but_not_the_report(golden_run):
    walk_mode, run = golden_run
    for row, delta, restructured in zip(run["rows"], run["deltas"], run["restructured"]):
        if restructured:
            assert delta > row[0]
        else:
            assert delta == row[0]
    gap = sum(run["deltas"]) - sum(row[0] for row in run["rows"])
    assert (gap, sum(run["restructured"])) == UNREPORTED_OVER_WALKS[walk_mode]


def test_oracle_walks_draw_only_when_pulled():
    engine = _bootstrap("oracle")
    twin = NowEngine.restore(engine.capture_snapshot())
    start = engine.state.clusters.cluster_ids()[0]
    draw, vertices, _ = RandCl(engine.state).round_partners(start, 10)
    assert engine.state.rng.getstate() == twin.state.rng.getstate()
    twin_randcl = RandCl(twin.state)
    for _ in range(4):
        assert vertices[draw()] == twin_randcl.select(start).cluster_id
        assert engine.state.rng.getstate() == twin.state.rng.getstate()


#: An oracle-walk checkpoint written by the last commit whose round drew,
#: picked and swapped in three layers (b98888846266900e83a3a3d3578806a611c4b46c):
#: ``uniform`` churn (join probability 0.3, Byzantine joins at tau = 0.15)
#: at n0 = 120, l = 1.42, seed 5, cut at step 85 of 130 after two merges.
ORACLE_CHECKPOINT = os.path.join(
    os.path.dirname(__file__), "fixtures", "checkpoint-oracle-exchange.json"
)
ORACLE_CHECKPOINT_HASH = "79e88bfeafd1c96d82a9119b713f80ca6f67e37fab2fcb867c13f42840064b5b"
#: That commit's uninterrupted 130-step run.
ORACLE_STRAIGHT_HASH = "33175896692923c94de3ee3e78c51bd557d282089c098083692c5968e62ea899"


def test_parent_cut_oracle_checkpoint_resumes_onto_its_straight_hash(tmp_path):
    with open(ORACLE_CHECKPOINT, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    assert data["state_hash"] == ORACLE_CHECKPOINT_HASH
    copy = str(tmp_path / "ckpt.json")
    shutil.copy(ORACLE_CHECKPOINT, copy)
    session = resume_from_checkpoint(copy)
    assert session.result.steps == 45
    assert session.final_state_hash == ORACLE_STRAIGHT_HASH
    scenario = Scenario.from_dict(data["scenario"])
    engine = scenario.build_engine()
    scenario.build_runner(engine=engine).run(scenario.steps)
    assert engine.state_hash() == ORACLE_STRAIGHT_HASH
