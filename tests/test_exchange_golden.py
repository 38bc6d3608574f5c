"""Golden values of the exchange pass, in both walk modes.

One schedule drives a bootstrapped engine through growth, shrinkage and
splits: 700 events from ``random.Random(9)`` on a 200-node start, a join
(Byzantine with probability 0.1) at ``i < 350`` and on every third step after
that, otherwise the departure of a random member.  Every one of its ~95 000
member swaps goes through ``ExchangeProtocol.exchange_all``.  The tests pin,
per walk mode, the final state hash, a digest of the per-event
``(messages, rounds, walk_hops, exchanged_nodes)`` tuples and a digest of the
cost ledgers; any rewrite of the pass must reproduce them bit for bit.  The
structural invariants hold after every event of the schedule.

The same run checks that every message the ledger books is in an operation
report, the ``randCl`` walks OVER runs to choose the edges of a split's new
cluster (or a merge's replacement edges) included.  A test pins how an
exchange pass draws oracle walks (``RandCl.oracle_walks``): lazily, as a
``select`` would.  A last one resumes an oracle-walk checkpoint onto the
straight run's hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from bisect import bisect_right

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
    """The golden schedule; per event: report tuple, ledger delta, split/merge
    flag, and the invariant violations after it."""
    engine = _bootstrap(walk_mode)
    rng = random.Random(9)
    rows, deltas, restructured, violations = [], [], [], []
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
        violations.extend(engine.check_invariants(check_honest_majority=False).violations)
    return {
        "state_hash": engine.state_hash(),
        "reports": _sha(repr(rows)),
        "ledger": _sha(canonical_json(engine.metrics.snapshot())),
        "rows": rows,
        "deltas": deltas,
        "restructured": restructured,
        "violations": violations,
    }


@pytest.fixture(scope="module", params=["oracle", "simulated"])
def golden_run(request):
    return request.param, _run_schedule(request.param)


GOLDEN = {
    "oracle": {
        "state_hash": "7fdfe6c44802fdfd093a72ad3a63417f2d8e5c1a33f481e58972011c66f32075",
        "reports": "15f2c272b65834115c49d5d93d3951476d2177c7c4c7286d173ac590cf5c3da8",
        "ledger": "6d6c39d49e5d9f273bdb9ccbda24dbb5182b3fcce3dd379c19235fbf27c1d51e",
    },
    "simulated": {
        "state_hash": "47fbe3604d1a9c4c94aeef5cd4e308a0a1b557b2fa3d725aff20d7b0f518199a",
        "reports": "f1e19c5c5c99c28e9088b2c807871b1815044da216a25936f8764864bb2d0e9b",
        "ledger": "0130798ce0f27f759bd7ad81fc1f9afc98ab3100d1b15d6cfd631a51d20b2fc9",
    },
}


def test_golden_hashes(golden_run):
    walk_mode, run = golden_run
    observed = {key: run[key] for key in GOLDEN[walk_mode]}
    assert observed == GOLDEN[walk_mode]


def test_invariants_hold_after_every_event(golden_run):
    _, run = golden_run
    assert run["violations"] == []


def test_every_ledger_message_reaches_the_report(golden_run):
    """Each event's ledger delta is its report's messages, splits and merges
    (whose OVER edge choices walk) included."""
    _, run = golden_run
    assert sum(run["restructured"]) >= 9
    for row, delta in zip(run["rows"], run["deltas"]):
        assert delta == row[0]


def test_oracle_walks_draw_only_when_pulled():
    """``oracle_walks`` draws nothing; each partner of the pass is then
    one ``randrange(n)`` over the population's units, the draw a ``select``
    makes, so the two name the same cluster from the same stream state."""
    engine = _bootstrap("oracle")
    twin = NowEngine.restore(engine.capture_snapshot())
    start = engine.state.clusters.cluster_ids()[0]
    partners, layout, _ = RandCl(engine.state).oracle_walks(start)
    assert engine.state.rng.getstate() == twin.state.rng.getstate()
    cum, _, total = layout.population()
    assert total == engine.state.network_size
    twin_randcl = RandCl(twin.state)
    for _ in range(4):
        unit = partners(total.bit_length())
        while unit >= total:
            unit = partners(total.bit_length())
        assert layout.vertices[bisect_right(cum, unit)] == twin_randcl.select(start).cluster_id
        assert engine.state.rng.getstate() == twin.state.rng.getstate()


#: An oracle-walk checkpoint (version 3, trace v4 member order): ``uniform``
#: churn (join probability 0.3, Byzantine joins at tau = 0.15) at n0 = 120,
#: l = 1.42, seed 5, cut at step 85 of 130 after merges.
ORACLE_CHECKPOINT = os.path.join(
    os.path.dirname(__file__), "fixtures", "checkpoint-oracle-exchange.json"
)
ORACLE_CHECKPOINT_HASH = "4d579434ac93ca969c30aa34dd94bed583f7abfc7b313ba9d98b60706352d168"
#: The uninterrupted 130-step run.
ORACLE_STRAIGHT_HASH = "2e6d9bbb045ace444295fe5c798d224814372ae9668fce9ac184abfef9efd1b4"


def test_oracle_checkpoint_resumes_onto_its_straight_hash(tmp_path):
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
