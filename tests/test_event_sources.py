"""The one event-source contract: ``next_event(context)`` on both drivers.

A hand-written source — no base class — reads the size, the parameters and
a uniform active node from its :class:`~repro.adversary.base.AdversaryContext`,
and runs, records and replays the same way on the single engine and on
shards, whatever the worker count.
"""

from __future__ import annotations

import filecmp

import pytest

from repro import Scenario
from repro.core.events import ChurnEvent
from repro.network.node import NodeRole
from repro.scenarios.scenario import WORKLOAD_KINDS
from repro.trace import record_scenario, replay_trace

#: Joins below this size, churns above it.
BAND = 210


class ContextReader:
    """Grows to :data:`BAND`, then leaves and joins at random."""

    def __init__(self, rng, byzantine_join_fraction=None) -> None:
        self._rng = rng

    def next_event(self, context):
        if context.network_size() < BAND or self._rng.random() < 0.5:
            byzantine = self._rng.random() < context.params.tau
            return ChurnEvent.join(role=NodeRole.BYZANTINE if byzantine else NodeRole.HONEST)
        return ChurnEvent.leave(context.sample_active(self._rng))


@pytest.fixture
def reader_kind(monkeypatch):
    monkeypatch.setitem(WORKLOAD_KINDS, "context-reader", ContextReader)


def _record(tmp_path, shards: int, workers: int):
    scenario = Scenario.from_dict(
        dict(
            name="context-reader",
            max_size=1024,
            initial_size=200,
            tau=0.1,
            k=2.0,
            seed=13,
            steps=60,
            shards=shards,
            workload={"kind": "context-reader"},
        )
    )
    path = str(tmp_path / f"reader-{shards}-{workers}.jsonl")
    session = record_scenario(scenario, trace_path=path, index_every=16, workers=workers)
    assert session.result.events == 60
    assert session.result.final_size != 200
    assert replay_trace(path).ok
    return path


def test_a_hand_written_source_runs_records_and_replays_on_one_engine(reader_kind, tmp_path):
    _record(tmp_path, shards=0, workers=1)


def test_a_hand_written_source_runs_records_and_replays_on_shards(reader_kind, tmp_path):
    inline = _record(tmp_path, shards=2, workers=1)
    processes = _record(tmp_path, shards=2, workers=2)
    assert filecmp.cmp(inline, processes, shallow=False)
