"""Tests for the streaming observation pipeline (bus, buffered probes).

The load-bearing property: **buffered observation is measurement-identical
and trajectory-identical to inline observation** — same RunResult metrics,
same probe outputs bit for bit, same final engine state hash — in both walk
modes.  Probes draw no randomness and the bus only batches *when* a probe
sees an observation, never *what* it sees.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Scenario
from repro.analysis.statistics import RunningSummary, summarize_values
from repro.scenarios import (
    CallbackProbe,
    CorruptionTrajectoryProbe,
    CostLedgerProbe,
    ObservationBus,
    SizeTrajectoryProbe,
    StepRecord,
)
from repro.trace import state_hash

PARAMS = dict(max_size=1024, initial_size=100, tau=0.15, k=2.0)


def small_scenario(seed=7, **overrides) -> Scenario:
    fields = dict(PARAMS)
    fields.update(overrides)
    return Scenario(name=fields.pop("name", "bus-test"), seed=seed, **fields)


def standard_probes(buffered: bool):
    return [
        CorruptionTrajectoryProbe(inline=not buffered),
        SizeTrajectoryProbe(inline=not buffered),
        CostLedgerProbe(),  # always buffered; measurement is record-only
        CallbackProbe(
            lambda _engine, record_or_report, _step: record_or_report.network_size,
            every=3,
            name="sampled-size",
            inline=not buffered,
        ),
    ]


def run_with(buffered: bool, batch: int, seed: int, steps: int, **overrides):
    scenario = small_scenario(seed=seed, steps=steps, **overrides)
    engine = scenario.build_engine()
    probes = standard_probes(buffered)
    runner = scenario.build_runner(probes=probes, engine=engine)
    runner.bus.buffer_size = batch
    result = runner.run(steps)
    return engine, probes, result


class TestBufferedInlineEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        steps=st.integers(5, 60),
        batch=st.integers(1, 97),
        walk_mode=st.sampled_from(["oracle", "simulated"]),
    )
    def test_buffered_equals_inline_bit_for_bit(self, seed, steps, batch, walk_mode):
        options = {"engine_options": {"walk_mode": walk_mode}}
        engine_a, probes_a, result_a = run_with(False, 1, seed, steps, **options)
        engine_b, probes_b, result_b = run_with(True, batch, seed, steps, **options)

        # Trajectory-identical: the observation path never perturbs the run.
        assert state_hash(engine_a) == state_hash(engine_b)
        # Measurement-identical: RunResult metrics agree exactly.
        assert result_a.events == result_b.events
        assert result_a.final_size == result_b.final_size
        assert result_a.final_worst_fraction == result_b.final_worst_fraction
        assert result_a.peak_worst_fraction == result_b.peak_worst_fraction
        # Probe outputs are bit-identical.
        for probe_a, probe_b in zip(probes_a, probes_b):
            assert probe_a.result() == probe_b.result(), probe_a.name
        summary_a = probes_a[0].summary()
        summary_b = probes_b[0].summary()
        assert summary_a == summary_b

    def test_adversarial_scenario_equivalence(self):
        options = dict(
            tau=0.2,
            adversary={"kind": "join_leave", "target_cluster": "first"},
            adversary_weight=0.5,
        )
        engine_a, probes_a, _ = run_with(False, 1, 13, 50, **options)
        engine_b, probes_b, _ = run_with(True, 17, 13, 50, **options)
        assert state_hash(engine_a) == state_hash(engine_b)
        for probe_a, probe_b in zip(probes_a, probes_b):
            assert probe_a.result() == probe_b.result()


class TestObservationBus:
    def test_probes_split_into_lanes(self):
        engine = small_scenario().build_engine()
        inline_probe = CorruptionTrajectoryProbe(inline=True)
        buffered_probe = SizeTrajectoryProbe()
        target_probe = CorruptionTrajectoryProbe(target_cluster=0)
        target_probe.name = "target"
        bus = ObservationBus(engine, [inline_probe, buffered_probe, target_probe])
        assert inline_probe in bus.inline_probes
        assert target_probe in bus.inline_probes  # per-event engine read forces inline
        assert buffered_probe in bus.buffered_probes

    def test_batch_cadence_and_final_flush(self):
        scenario = small_scenario(steps=25)
        engine = scenario.build_engine()

        class BatchSpy(CostLedgerProbe):
            name = "spy"

            def __init__(self):
                super().__init__()
                self.batch_sizes = []

            def on_records(self, engine, records):
                self.batch_sizes.append(len(records))
                super().on_records(engine, records)

        spy = BatchSpy()
        runner = scenario.build_runner(probes=[spy], engine=engine)
        runner.bus.buffer_size = 10
        result = runner.run(25)
        assert result.events == 25
        # Full batches of 10 plus the final partial flush.
        assert spy.batch_sizes == [10, 10, 5]
        assert runner.bus.pending == 0
        assert sum(spy.result()["counts"].values()) == 25

    def test_records_carry_event_and_observables(self):
        scenario = small_scenario(steps=10)
        engine = scenario.build_engine()
        seen = []

        class RecordSpy(CostLedgerProbe):
            name = "record-spy"

            def on_records(self, engine, records):
                seen.extend(records)

        runner = scenario.build_runner(probes=[RecordSpy()], engine=engine)
        result = runner.run(10)
        assert len(seen) == result.events
        for index, record in enumerate(seen, start=1):
            assert isinstance(record, StepRecord)
            assert record.step_index == index
            assert record.kind in ("join", "leave")
            assert record.role in ("honest", "byzantine")
            assert record.network_size > 0
            assert record.cluster_count > 0
            assert 0.0 <= record.worst_fraction <= 1.0
            assert record.operation in ("join", "leave")
            assert record.messages >= 0

    def test_no_record_allocation_without_buffered_probes(self):
        scenario = small_scenario(steps=10)
        engine = scenario.build_engine()
        runner = scenario.build_runner(
            probes=[CorruptionTrajectoryProbe(inline=True)], engine=engine
        )
        runner.run(10)
        assert runner.bus.records_published == 0

    def test_probe_added_after_construction_is_observed(self):
        scenario = small_scenario(steps=20)
        engine = scenario.build_engine()
        runner = scenario.build_runner(probes=[], engine=engine)
        late_inline = CorruptionTrajectoryProbe(inline=True)
        late_buffered = SizeTrajectoryProbe()
        runner.probes.append(late_inline)
        runner.probes.append(late_buffered)
        result = runner.run(20)
        assert late_inline.count == result.events
        assert late_buffered.count == result.events
        assert result.probes["size"]["final_size"] == result.final_size


class TestRunningSummary:
    def test_matches_batch_summary_while_under_cap(self):
        values = [random.Random(5).random() for _ in range(200)]
        running = RunningSummary(threshold=0.5, sample_cap=1024)
        for value in values:
            running.push(value)
        batch = summarize_values(values, threshold=0.5)
        stream = running.summary()
        assert stream.count == batch.count
        assert stream.minimum == batch.minimum
        assert stream.maximum == batch.maximum
        assert stream.p50 == batch.p50
        assert stream.p90 == batch.p90
        assert stream.p99 == batch.p99
        assert stream.steps_above_threshold == batch.steps_above_threshold
        assert stream.mean == pytest.approx(batch.mean, rel=1e-12)
        assert running.series == values

    def test_decimation_bounds_memory_and_keeps_exact_aggregates(self):
        running = RunningSummary(threshold=900.0, sample_cap=64)
        total = 1000
        for value in range(total):
            running.push(float(value))
        assert running.count == total
        assert len(running.series) <= 64
        assert running.series_stride > 1
        # Retained points are the stride-aligned subsequence from the start.
        assert running.series == [
            float(index) for index in range(0, total, running.series_stride)
        ]
        # Exact aggregates survive decimation.
        assert running.minimum == 0.0
        assert running.maximum == float(total - 1)
        assert running.steps_above_threshold == 100
        assert running.mean == pytest.approx((total - 1) / 2.0, rel=1e-12)

    def test_decimation_is_deterministic(self):
        first = RunningSummary(sample_cap=32)
        second = RunningSummary(sample_cap=32)
        for value in range(500):
            first.push(value * 0.001)
            second.push(value * 0.001)
        assert first.series == second.series
        assert first.series_stride == second.series_stride

    def test_rejects_tiny_cap(self):
        with pytest.raises(ValueError):
            RunningSummary(sample_cap=1)


class TestStreamingProbes:
    def test_trajectory_probe_decimates_but_keeps_peak_and_crossing(self):
        probe = CorruptionTrajectoryProbe(threshold=0.0, series_cap=16)
        scenario = small_scenario(steps=60)
        result = scenario.run(probes=[probe])
        assert probe.count == result.events
        assert len(probe.series) <= 16
        assert probe.series_stride >= 1
        assert probe.first_step_at_threshold == 1
        assert probe.summary().count == result.events

    def test_size_probe_exact_extrema_under_decimation(self):
        probe = SizeTrajectoryProbe(series_cap=8)
        result = small_scenario(steps=40).run(probes=[probe])
        data = probe.result()
        assert data["count"] == result.events
        assert len(data["sizes"]) <= 8
        assert data["final_size"] == result.final_size
        assert data["max_size"] >= data["min_size"]

    def test_cost_probe_memory_is_operation_bounded(self):
        probe = CostLedgerProbe()
        result = small_scenario(steps=50).run(probes=[probe])
        assert set(probe.messages_by_operation) <= {"join", "leave"}
        assert sum(probe.result()["counts"].values()) == result.events
        assert probe.total_messages() == sum(probe.messages_by_operation.values())
        for name in probe.operations():
            assert probe.mean_messages(name) * probe.count(name) == pytest.approx(
                probe.messages_by_operation[name]
            )

    def test_buffered_callback_sampling_matches_inline(self):
        inline = CallbackProbe(
            lambda _e, report, _s: report.network_size, every=4, name="inline-cb"
        )
        buffered = CallbackProbe(
            lambda _e, record, _s: record.network_size,
            every=4,
            name="buffered-cb",
            inline=False,
        )
        result = small_scenario(steps=30).run(probes=[inline, buffered])
        assert len(inline.values) == result.events // 4
        assert inline.values == buffered.values
