"""Unit tests for the scenarios subsystem (Scenario / SimulationRunner / probes)."""

from __future__ import annotations

import random

import pytest

from repro import NowEngine, Scenario, SimulationRunner
from repro.core.placement import PLACEMENT_RULES
from repro.errors import ConfigurationError
from repro.scenarios import (
    NAMED_SCENARIOS,
    CallbackProbe,
    CorruptionTrajectoryProbe,
    CostLedgerProbe,
    SizeTrajectoryProbe,
    named_scenario,
    stop_when_compromised,
    stop_when_size_at_least,
)
from repro.workloads import GrowthWorkload, UniformChurn

PARAMS = dict(max_size=1024, initial_size=100, tau=0.1, k=2.0, seed=7)


def small_scenario(**overrides) -> Scenario:
    fields = dict(PARAMS)
    fields.update(overrides)
    return Scenario(name=fields.pop("name", "test"), **fields)


class TestSimulationRunner:
    def test_fixed_step_run_counts_events(self):
        scenario = small_scenario(steps=25)
        result = scenario.run()
        assert result.steps == 25
        assert result.events + result.idle_steps == 25
        assert result.stop_reason == "steps exhausted"
        assert result.final_size > 0
        assert result.events_per_second > 0

    def test_inline_callback_collects_per_step_reports(self):
        reports = CallbackProbe(lambda _engine, report, _step: report, name="reports")
        result = small_scenario(steps=10).run(probes=[reports])
        assert len(reports.values) == result.events
        assert all(hasattr(report, "worst_byzantine_fraction") for report in reports.values)

    def test_idle_streak_stops_finite_workloads(self):
        scenario = small_scenario(
            steps=500,
            workload={"kind": "growth", "target_size": PARAMS["initial_size"] + 10},
            max_idle_streak=3,
        )
        result = scenario.run()
        assert result.stop_reason == "source idle"
        assert result.final_size == PARAMS["initial_size"] + 10

    def test_stop_condition_ends_run_with_reason(self):
        scenario = small_scenario(
            steps=500, workload={"kind": "growth", "target_size": 400}
        )
        target = PARAMS["initial_size"] + 15
        result = scenario.run(stop_conditions=[stop_when_size_at_least(target)])
        assert result.stop_reason == f"size >= {target}"
        assert result.final_size == target
        assert result.steps < 500

    def test_run_until_size_grows_and_is_reentrant(self):
        engine = small_scenario().build_engine()
        workload = GrowthWorkload(random.Random(8), target_size=300, byzantine_join_fraction=0.1)
        runner = SimulationRunner(engine, workload, max_idle_streak=2)
        first = runner.run_until_size(PARAMS["initial_size"] + 10, max_steps=200)
        assert engine.network_size == PARAMS["initial_size"] + 10
        second = runner.run_until_size(PARAMS["initial_size"] + 10, max_steps=200)
        assert second.steps == 0  # already at the target
        third = runner.run_until_size(PARAMS["initial_size"] + 20, max_steps=200)
        assert engine.network_size == PARAMS["initial_size"] + 20
        assert runner.total_events == first.events + third.events

    def test_rejects_sources_without_next_event(self):
        engine = small_scenario().build_engine()
        with pytest.raises(ConfigurationError):
            SimulationRunner(engine, object())

    def test_rejects_duplicate_probe_names(self):
        engine = small_scenario().build_engine()
        workload = UniformChurn(random.Random(3))
        with pytest.raises(ConfigurationError, match="duplicate probe names"):
            SimulationRunner(
                engine,
                workload,
                probes=[CallbackProbe(lambda *a: None), CallbackProbe(lambda *a: None)],
            )

    def test_rejects_duplicate_probe_name_attached_between_runs(self):
        """``probes`` is a public list; the bus checks it again at every run()."""
        runner = small_scenario().build_runner(probes=[CallbackProbe(lambda *a: None)])
        runner.run(3)
        runner.probes.append(CallbackProbe(lambda *a: None))
        with pytest.raises(ConfigurationError, match="duplicate probe names"):
            runner.run(3)
        assert runner.total_events == 3

    def test_summary_table_renders(self):
        result = small_scenario(steps=5).run()
        table = result.summary_table()
        assert "events applied" in table
        assert "stop reason" in table


#: ``(steps, events, idle steps, final size, final cluster count, final
#: worst, peak worst, stop reason)`` of ``polynomial-growth`` (seed 11) under
#: each stop reason the batch loop produces, on the single engine and on two
#: shards; taken before both drivers shared one loop.
STOP_REASON_PINS = {
    (0, "steps exhausted"): (30, 30, 0, 286, 6, 0.15384615384615385, 0.24444444444444444, "steps exhausted"),
    (0, "source idle"): (47, 44, 3, 300, 6, 0.18518518518518517, 0.24444444444444444, "source idle"),
    (0, "stop condition"): (24, 24, 0, 280, 6, 0.1568627450980392, 0.24444444444444444, "size >= 280"),
    (2, "steps exhausted"): (30, 30, 0, 286, 6, 0.1590909090909091, 0.1590909090909091, "steps exhausted"),
    (2, "source idle"): (47, 44, 3, 300, 6, 0.15217391304347827, 0.15217391304347827, "source idle"),
    # The stop fires inside the first 64-event window, which the shard
    # engines complete: the result counts the whole window.
    (2, "stop condition"): (64, 64, 0, 320, 6, 0.16326530612244897, 0.20930232558139536, "size >= 280"),
}


@pytest.mark.parametrize("shards, case", sorted(STOP_REASON_PINS))
def test_every_stop_reason_of_the_batch_loop(shards, case):
    scenario = named_scenario("polynomial-growth", seed=11, shards=shards)
    # The idle streak (max_idle_streak=3) starts once the target is reached.
    scenario.workload = {"kind": "growth", "target_size": 300 if case == "source idle" else 400}
    stops = [stop_when_size_at_least(280)] if case == "stop condition" else []
    if case == "steps exhausted":
        scenario.steps = 30
    result = scenario.run(stop_conditions=stops)
    assert (
        result.steps,
        result.events,
        result.idle_steps,
        result.final_size,
        result.final_cluster_count,
        result.final_worst_fraction,
        result.peak_worst_fraction,
        result.stop_reason,
    ) == STOP_REASON_PINS[shards, case]
    assert (result.shards, result.compromised_clusters) == (shards, [])


class TestStopWhenCompromised:
    """The way a run ends on a compromised cluster: a stop condition on the bus."""

    #: One cluster reaches one third at step 41 of this run, and only there.
    SINGLE = dict(tau=0.12, steps=150)
    #: Two shards in windows of 16 events; the window ending at step 64 leaves
    #: a cluster of shard 0 compromised.
    SHARDED = dict(
        tau=0.12, seed=4, initial_size=200, steps=300, shards=2,
        shard_options={"barrier_interval": 16},
    )

    def test_single_engine_stops_at_the_first_compromising_step(self):
        flags = CallbackProbe(lambda _e, report, step: (step, bool(report.compromised_clusters)))
        small_scenario(**self.SINGLE).run(probes=[flags])
        first = next(step for step, compromised in flags.values if compromised)

        reports = CallbackProbe(lambda _e, report, _s: report)
        result = small_scenario(**self.SINGLE).run(
            probes=[reports], stop_conditions=[stop_when_compromised()]
        )
        cluster = reports.values[-1].compromised_clusters[0]
        assert 1 < first == result.steps == len(reports.values)
        assert result.stop_reason == f"cluster {cluster} compromised"
        assert all(report.safe for report in reports.values[:-1])

        named = small_scenario(**self.SINGLE).run(stop_conditions=[stop_when_compromised(cluster)])
        assert (named.steps, named.stop_reason) == (result.steps, result.stop_reason)

    def test_sharded_stops_at_window_granularity_on_composite_names(self):
        interval = self.SHARDED["shard_options"]["barrier_interval"]
        sizes = SizeTrajectoryProbe()
        result = small_scenario(**self.SHARDED).run(
            probes=[sizes], stop_conditions=[stop_when_compromised()]
        )
        # The engines finish the window; probes stop at its first record,
        # which already sees the compromise of the window's end state.
        assert result.steps % interval == 0 and result.steps > 0
        assert sizes.count == result.steps - interval + 1
        before = small_scenario(**self.SHARDED).run(steps=result.steps - interval)
        after = small_scenario(**self.SHARDED).run(steps=result.steps)
        assert before.compromised_clusters == []
        # A cluster goes by its composite name, local_id * shards + shard.
        name = after.compromised_clusters[0]
        assert isinstance(name, int) and name % 2 == 0
        assert result.stop_reason == f"cluster {name} compromised"

        named = small_scenario(**self.SHARDED).run(stop_conditions=[stop_when_compromised(name)])
        assert (named.steps, named.stop_reason) == (result.steps, result.stop_reason)


class TestProbes:
    def test_corruption_probe_tracks_every_event(self):
        probe = CorruptionTrajectoryProbe()
        result = small_scenario(steps=20).run(probes=[probe])
        assert len(probe.series) == result.events
        assert probe.peak == max(probe.series)
        assert result.probes["corruption"]["peak"] == probe.peak
        summary = probe.summary()
        assert summary.count == result.events

    def test_corruption_probe_threshold_capture(self):
        probe = CorruptionTrajectoryProbe(threshold=0.0)
        small_scenario(steps=5).run(probes=[probe])
        assert probe.captured
        assert probe.first_step_at_threshold == 1

    def test_size_probe_matches_engine(self):
        probe = SizeTrajectoryProbe()
        scenario = small_scenario(steps=15)
        result = scenario.run(probes=[probe])
        assert len(probe.sizes) == result.events
        assert probe.result()["final_size"] == result.final_size

    def test_cost_probe_groups_by_operation(self):
        probe = CostLedgerProbe()
        result = small_scenario(steps=30).run(probes=[probe])
        assert set(probe.messages_by_operation) <= {"join", "leave"}
        assert sum(probe.count(name) for name in probe.messages_by_operation) == result.events
        assert probe.total_messages() > 0
        assert probe.mean_messages_overall() > 0

    def test_cost_probe_reads_operation_reports_under_comparison_rules(self):
        # A comparison rule's placement is free; only NOW's walks and
        # exchanges (and the splits and merges every rule shares) cost.
        now, plain = CostLedgerProbe(), CostLedgerProbe()
        small_scenario(steps=10).run(probes=[now])
        result = small_scenario(steps=10, engine="no_shuffle").run(probes=[plain])
        assert set(plain.messages_by_operation) <= {"join", "leave"}
        assert sum(plain.count(name) for name in plain.operations()) == result.events
        assert plain.total_messages() < now.total_messages()

    def test_callback_probe_sampling_interval(self):
        probe = CallbackProbe(lambda engine, report, step: engine.network_size, every=5)
        result = small_scenario(steps=20).run(probes=[probe])
        assert len(probe.values) == result.events // 5

    def test_callback_probe_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            CallbackProbe(lambda *a: None, every=0)


class TestScenario:
    def test_json_round_trip(self):
        scenario = named_scenario("join-leave-attack", seed=9)
        restored = Scenario.from_json(scenario.to_json())
        assert restored == scenario

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            Scenario.from_dict({"name": "x", "bogus": 1})

    @pytest.mark.parametrize("weight", [-0.5, 1.5])
    def test_from_dict_refuses_a_mix_weight_outside_the_unit_interval(self, weight):
        with pytest.raises(ConfigurationError, match=r"'adversary_weight' must lie in \[0, 1\]"):
            Scenario.from_dict({"name": "x", "adversary_weight": weight})

    def test_unknown_engine_workload_adversary_rejected(self):
        with pytest.raises(ConfigurationError):
            small_scenario(engine="nope").build_engine()
        with pytest.raises(ConfigurationError, match="unknown engine"):
            Scenario.from_dict({"name": "x", "engine": "nope"})
        with pytest.raises(ConfigurationError):
            small_scenario(workload={"kind": "nope"}).run()
        with pytest.raises(ConfigurationError):
            small_scenario(adversary={"kind": "nope"}).run()

    @pytest.mark.parametrize(
        "field, spec, named",
        [
            ("workload", {"kind": "shrink"}, "target_size"),
            ("workload", {"kind": "uniform", "bogus": 1}, "bogus"),
            ("workload", {"kind": "oscillating", "low_size": 50}, "high_size"),
            ("adversary", {"kind": "oblivious", "target_cluster": "first"}, "target_cluster"),
            ("adversary", {"kind": "join_leave", "rate": 2}, "rate"),
        ],
    )
    def test_malformed_source_spec_is_refused_naming_kind_and_field(self, field, spec, named):
        """A spec that does not fit its constructor is a ConfigurationError
        naming the kind and the field, not a TypeError."""
        scenario = small_scenario(**{field: spec})
        with pytest.raises(ConfigurationError, match=f"{field} '{spec['kind']}'.*'{named}'"):
            scenario.run()

    def test_constructor_checks_still_apply(self):
        """A spec that binds is handed to the constructor, whose own checks stand."""
        with pytest.raises(ConfigurationError, match="target_size must be positive"):
            small_scenario(workload={"kind": "shrink", "target_size": 0}).run()

    def test_adversary_spec_without_kind_is_refused(self):
        with pytest.raises(ConfigurationError, match="unknown adversary kind None"):
            small_scenario(adversary={"target_cluster": "first"}).run()

    def test_scenario_without_sources_rejected(self):
        with pytest.raises(ConfigurationError):
            small_scenario(workload=None).run()

    def test_builds_every_placement_rule(self):
        for rule in PLACEMENT_RULES:
            engine = small_scenario(engine=rule).build_engine()
            assert isinstance(engine, NowEngine) and engine.rule == rule

    def test_adversary_target_first_resolves(self):
        scenario = small_scenario(
            steps=20,
            tau=0.2,
            adversary={"kind": "join_leave", "target_cluster": "first"},
            adversary_weight=0.5,
        )
        result = scenario.run(probes=[CorruptionTrajectoryProbe()])
        assert result.events > 0

    def test_walk_mode_string_in_engine_options(self):
        scenario = small_scenario(engine_options={"walk_mode": "simulated"}, steps=5)
        result = scenario.run()
        assert result.events == 5

    def test_named_scenarios_all_build(self):
        for name in NAMED_SCENARIOS:
            scenario = named_scenario(name, initial_size=80, max_size=512, steps=3)
            assert scenario.name == name
            assert scenario.build_engine().network_size == 80

    def test_named_scenario_unknown(self):
        with pytest.raises(ConfigurationError):
            named_scenario("does-not-exist")

    def test_seed_reproducibility(self):
        sizes = [CallbackProbe(lambda _e, report, _s: report.network_size) for _ in range(2)]
        first = small_scenario(steps=15).run(probes=[sizes[0]])
        second = small_scenario(steps=15).run(probes=[sizes[1]])
        assert sizes[0].values == sizes[1].values
        assert first.final_worst_fraction == second.final_worst_fraction


class TestObservationSurface:
    def test_every_rule_shares_the_observation_surface(self):
        for rule in PLACEMENT_RULES:
            engine = small_scenario(engine=rule).build_engine()
            assert engine.network_size > 0
            assert engine.cluster_count > 0
            assert set(engine.cluster_sizes()) == set(engine.byzantine_fractions())
            assert 0.0 <= engine.worst_cluster_fraction() <= 1.0
            assert isinstance(engine.compromised_clusters(), list)
            assert engine.random_member() in engine.active_nodes()
            assert engine.random_cluster() in engine.state.clusters
            assert engine.metrics is engine.state.metrics
