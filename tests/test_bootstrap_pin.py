"""Byte pins of the initialization phase in model discovery.

``NowEngine.bootstrap`` at n0 = 150, 300 and 600 (seed 47, N = 4096,
τ = 0.15), under oracle and simulated walk configs, must reproduce these
literals: every :class:`InitializationReport` field, the state hash and the
``initialization`` ledger.  The discovery rounds are the bootstrap graph's
honest-adjacent diameter (the model computes it for n ≤ 600), which the
state hash does not cover and event costs never read, so only a pin on the
report and the ledger catches a wrong diameter.  The walk mode plays no
part in initialization, so both configs give the same values.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.engine import EngineConfig, NowEngine
from repro.params import ProtocolParameters

PINS = {
    150: {
        "report": {
            "initial_size": 150,
            "byzantine_count": 22,
            "cluster_count": 6,
            "committee": [122, 35, 104, 25, 143, 82, 57, 118, 113, 7, 97, 30, 134, 34],
            "committee_honest_fraction": 1.0,
            "discovery_messages": 32100,
            "discovery_rounds": 10,
            "agreement_messages": 53121,
            "agreement_rounds": 157,
            "clusterization_messages": 5850,
            "clusterization_rounds": 2,
            "discovery_mode": "model",
        },
        "state_hash": "08d876d0327b3aface0b93ff687050daffe976c157e8f7dc78342b655dc8056f",
        "ledger": {
            "messages": 91071,
            "rounds": 169,
            "by_kind": {"agreement": 53121, "discovery": 32100, "membership": 5850},
            "by_label": {"clusterization": 58971, "discovery": 32100},
            "rounds_by_label": {"clusterization": 159, "discovery": 10},
        },
    },
    300: {
        "report": {
            "initial_size": 300,
            "byzantine_count": 45,
            "cluster_count": 12,
            "committee": [28, 34, 252, 109, 242, 33, 182, 251, 77, 214, 222, 256, 274, 267, 176, 29],
            "committee_honest_fraction": 0.875,
            "discovery_messages": 127500,
            "discovery_rounds": 13,
            "agreement_messages": 171033,
            "agreement_rounds": 203,
            "clusterization_messages": 14175,
            "clusterization_rounds": 2,
            "discovery_mode": "model",
        },
        "state_hash": "51d8f09bbf242b1edfc3f70118706c0bc5dba9399af5f422880ab804daefe3a7",
        "ledger": {
            "messages": 312708,
            "rounds": 218,
            "by_kind": {"agreement": 171033, "discovery": 127500, "membership": 14175},
            "by_label": {"clusterization": 185208, "discovery": 127500},
            "rounds_by_label": {"clusterization": 205, "discovery": 13},
        },
    },
    600: {
        "report": {
            "initial_size": 600,
            "byzantine_count": 90,
            "cluster_count": 25,
            "committee": [
                4, 376, 531, 107, 32, 262, 162, 269, 417, 577, 571, 203, 334, 485, 438, 337, 597, 3,
            ],
            "committee_honest_fraction": 0.9444444444444444,
            "discovery_messages": 511800,
            "discovery_rounds": 14,
            "agreement_messages": 542542,
            "agreement_rounds": 256,
            "clusterization_messages": 51120,
            "clusterization_rounds": 2,
            "discovery_mode": "model",
        },
        "state_hash": "755b9b98d51906c3542ae533e9366771c15395d58781266928d6e66a910489f2",
        "ledger": {
            "messages": 1105462,
            "rounds": 272,
            "by_kind": {"agreement": 542542, "discovery": 511800, "membership": 51120},
            "by_label": {"clusterization": 593662, "discovery": 511800},
            "rounds_by_label": {"clusterization": 258, "discovery": 14},
        },
    },
}


@pytest.mark.parametrize("walk_mode", ["oracle", "simulated"])
@pytest.mark.parametrize("initial_size", sorted(PINS))
def test_bootstrap_matches_pins(initial_size, walk_mode):
    params = ProtocolParameters(max_size=4096, tau=0.15)
    engine = NowEngine.bootstrap(
        params, initial_size, seed=47, config=EngineConfig(walk_mode=walk_mode)
    )
    pin = PINS[initial_size]
    assert dataclasses.asdict(engine.initialization_report) == pin["report"]
    assert engine.state_hash() == pin["state_hash"]
    assert engine.metrics.scope("initialization").snapshot() == pin["ledger"]
