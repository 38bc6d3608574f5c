"""E3 — Section 3.1 primitive costs: randCl and exchange.

Paper claims: ``randCl`` has expected communication cost ``O(log^5 N)`` and
round complexity ``O(log^4 N)``; ``exchange`` costs ``O(log^6 N)`` messages
and ``O(log^4 N)`` rounds; ``randNum`` costs ``O(log^2 N)`` messages.

What we run: for a sweep of ``N``, invoke each primitive repeatedly on a
bootstrapped system and record the measured message/round costs, then fit
the polylog exponent of each curve.  The measured exponents should land near
the paper's (5, 6, 2) message exponents — "near" because the constants and
the overlay degree ``log^(1+alpha) N`` fold additional ``log`` factors into
the finite-size fit.
"""

from __future__ import annotations

import pytest

from repro.analysis import ExperimentTable
from repro.analysis.complexity import fit_polylog, fit_power_law
from repro.core.exchange import ExchangeProtocol
from repro.core.randcl import RandCl
from repro.core.randnum import RandNum
from repro.network.metrics import CommunicationMetrics
from repro.walks.sampler import WalkMode

from common import bootstrap_engine, run_once, sqrt_scaled_size

SWEEP = [256, 1024, 4096, 16384, 65536]
RANDCL_CALLS = 30
EXCHANGE_CALLS = 6


def run_for_size(max_size: int, seed: int):
    engine = bootstrap_engine(
        max_size, sqrt_scaled_size(max_size), tau=0.1, seed=seed
    )
    state = engine.state
    randnum = RandNum(state.rng)
    randcl = RandCl(state, randnum, walk_mode=WalkMode.ORACLE)
    exchange = ExchangeProtocol(state, randcl, randnum)
    cluster_ids = state.clusters.cluster_ids()

    randnum_metrics = CommunicationMetrics()
    cluster = state.clusters.get(cluster_ids[0])
    for _ in range(RANDCL_CALLS):
        randnum.generate(
            cluster.members, upper_bound=1024, byzantine_members=[], metrics=randnum_metrics
        )

    randcl_messages = []
    randcl_rounds = []
    for index in range(RANDCL_CALLS):
        start = cluster_ids[index % len(cluster_ids)]
        result = randcl.select(start)
        randcl_messages.append(result.messages)
        randcl_rounds.append(result.rounds)

    exchange_messages = []
    exchange_rounds = []
    for index in range(EXCHANGE_CALLS):
        target = cluster_ids[index % len(cluster_ids)]
        report = exchange.exchange_all([target])
        exchange_messages.append(report.messages)
        exchange_rounds.append(report.rounds)

    return {
        "max_size": max_size,
        "randnum_messages": randnum_metrics.messages / RANDCL_CALLS,
        "randcl_messages": sum(randcl_messages) / len(randcl_messages),
        "randcl_rounds": sum(randcl_rounds) / len(randcl_rounds),
        "exchange_messages": sum(exchange_messages) / len(exchange_messages),
        "exchange_rounds": sum(exchange_rounds) / len(exchange_rounds),
    }


def run_experiment():
    return [run_for_size(size, seed=200 + index) for index, size in enumerate(SWEEP)]


@pytest.mark.experiment("E3")
def test_primitive_costs(benchmark):
    rows = run_once(benchmark, run_experiment)
    table = ExperimentTable(
        title="E3 primitive costs vs N (randNum / randCl / exchange)",
        headers=[
            "N",
            "randNum msgs",
            "randCl msgs",
            "randCl rounds",
            "exchange msgs",
            "exchange rounds",
        ],
    )
    for row in rows:
        table.add_row(
            row["max_size"],
            row["randnum_messages"],
            row["randcl_messages"],
            row["randcl_rounds"],
            row["exchange_messages"],
            row["exchange_rounds"],
        )
    sizes = [row["max_size"] for row in rows]
    fits = {
        "randNum": fit_polylog(sizes, [row["randnum_messages"] for row in rows]),
        "randCl": fit_polylog(sizes, [row["randcl_messages"] for row in rows]),
        "exchange": fit_polylog(sizes, [row["exchange_messages"] for row in rows]),
    }
    table.add_note(
        "Measured polylog exponents (cost ~ (log N)^b): "
        + ", ".join(f"{name} b={fit.exponent:.2f}" for name, fit in fits.items())
        + ".  Paper: randNum O(log^2 N), randCl O(log^5 N), exchange O(log^6 N)."
    )
    table.print()

    # Shape assertions: ordering randNum < randCl < exchange at every N, all
    # sub-linear in N, and the fitted exponents are ranked the same way.
    for row in rows:
        assert row["randnum_messages"] < row["randcl_messages"] < row["exchange_messages"]
    for name in ("randNum", "randCl", "exchange"):
        values = {
            "randNum": [row["randnum_messages"] for row in rows],
            "randCl": [row["randcl_messages"] for row in rows],
            "exchange": [row["exchange_messages"] for row in rows],
        }[name]
        assert fit_power_law(sizes, values).exponent < 0.9
    assert fits["randNum"].exponent < fits["randCl"].exponent < fits["exchange"].exponent + 1e-9
