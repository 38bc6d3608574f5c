"""Tests for the experiment sweep subsystem and its CLI front end."""

from __future__ import annotations

import json

import pytest

from repro.analysis.statistics import mean_confidence
from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments import SweepSpec, SweepRunner, run_sweep, run_sweep_payload
from repro.scenarios.probes import CorruptionTrajectoryProbe, CostLedgerProbe
from repro.scenarios.scenario import Scenario
from repro.trace import record_scenario


def small_spec(**overrides) -> SweepSpec:
    fields = dict(
        name="test-sweep",
        scenario=dict(
            name="test-sweep",
            max_size=1024,
            initial_size=120,
            tau=0.1,
            steps=12,
            workload={"kind": "uniform"},
        ),
        grid={"tau": [0.1, 0.2]},
        seeds=[1, 2],
        workers=0,
    )
    fields.update(overrides)
    return SweepSpec(**fields)


class TestMeanConfidence:
    def test_empty_and_singleton(self):
        empty = mean_confidence([])
        assert empty.count == 0 and empty.half_width == 0.0
        single = mean_confidence([3.0])
        assert single.count == 1
        assert single.mean == 3.0
        assert single.half_width == 0.0
        assert single.minimum == single.maximum == 3.0

    def test_known_values(self):
        stats = mean_confidence([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.std == pytest.approx(1.2909944, abs=1e-6)
        assert stats.half_width == pytest.approx(1.96 * stats.std / 2.0)
        assert stats.lower == pytest.approx(stats.mean - stats.half_width)
        assert stats.upper == pytest.approx(stats.mean + stats.half_width)
        assert "±" in str(stats)

    def test_as_dict_round_trip(self):
        stats = mean_confidence([2.0, 4.0])
        payload = stats.as_dict()
        assert payload["count"] == 2
        assert payload["mean"] == pytest.approx(3.0)
        assert payload["lower"] <= payload["mean"] <= payload["upper"]

    def test_single_replicate_has_degenerate_interval(self):
        # n=1: no spread to estimate — the interval must collapse onto the
        # sample, not produce NaN from the (n-1) variance denominator.
        single = mean_confidence([7.5])
        assert single.std == 0.0
        assert single.lower == single.upper == single.mean == 7.5
        assert str(single) == "7.500 ± 0.000"

    def test_constant_samples_have_zero_width_interval(self):
        stats = mean_confidence([2.0] * 5)
        assert stats.count == 5
        assert stats.mean == 2.0
        assert stats.std == 0.0
        assert stats.half_width == 0.0
        assert stats.minimum == stats.maximum == 2.0

    def test_custom_z_scales_half_width(self):
        narrow = mean_confidence([1.0, 2.0, 3.0], z=1.0)
        wide = mean_confidence([1.0, 2.0, 3.0], z=2.0)
        assert wide.half_width == pytest.approx(2.0 * narrow.half_width)
        assert narrow.mean == wide.mean


class TestSweepSpec:
    def test_grid_expansion_is_cartesian_and_sorted(self):
        spec = small_spec(grid={"tau": [0.1, 0.2], "initial_size": [100, 120]})
        points = spec.grid_points()
        assert len(points) == 4
        assert {"initial_size": 100, "tau": 0.1} in points

    def test_payload_expansion_counts_and_seeds(self):
        spec = small_spec()
        payloads = spec.payloads()
        assert len(payloads) == 4  # 2 grid points x 2 seeds
        seeds = {(p["point"]["tau"], p["seed"]) for p in payloads}
        assert seeds == {(0.1, 1), (0.1, 2), (0.2, 1), (0.2, 2)}
        for payload in payloads:
            assert payload["scenario"]["tau"] == payload["point"]["tau"]
            assert payload["scenario"]["seed"] == payload["seed"]

    def test_dotted_grid_key_reaches_nested_field(self):
        spec = small_spec(grid={"engine_options.walk_mode": ["simulated", "oracle"]})
        payloads = spec.payloads()
        modes = {p["scenario"]["engine_options"]["walk_mode"] for p in payloads}
        assert modes == {"simulated", "oracle"}

    def test_preset_base_with_overrides(self):
        spec = SweepSpec(preset="uniform-churn", scenario={"steps": 7}, seeds=[3])
        fields = spec.base_fields()
        assert fields["workload"] == {"kind": "uniform"}
        assert fields["steps"] == 7

    def test_unknown_preset_and_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(preset="no-such-preset", seeds=[1]).base_fields()
        with pytest.raises(ConfigurationError):
            SweepSpec.from_dict({"bogus": 1})
        with pytest.raises(ConfigurationError):
            small_spec(grid={"tau": []}).grid_points()
        with pytest.raises(ConfigurationError):
            small_spec(grid={"steps.deep": [1]}).payloads()

    def test_json_round_trip(self):
        spec = small_spec()
        clone = SweepSpec.from_json(spec.to_json())
        assert clone == spec

    def test_invalid_scenario_field_fails_eagerly(self):
        spec = small_spec(grid={"not_a_scenario_field": [1]})
        with pytest.raises(ConfigurationError):
            spec.payloads()


class TestSweepRunner:
    def test_inline_run_records_and_aggregates(self):
        result = run_sweep(small_spec())
        assert len(result.records) == 4
        assert result.workers_used == 1
        points = result.points()
        assert len(points) == 2
        for point in points:
            rows = result.records_for(point)
            assert [row["seed"] for row in rows] == [1, 2]
            aggregates = result.aggregate(point)
            events = aggregates["events"]
            assert events.count == 2
            assert events.mean == pytest.approx(
                sum(row["events"] for row in rows) / 2
            )
        table = result.summary_table()
        assert "tau=0.1" in table and "tau=0.2" in table

    def test_resume_file_skips_completed_units(self, tmp_path):
        progress = str(tmp_path / "progress.jsonl")
        runner = SweepRunner(small_spec())
        first = runner.run(resume_path=progress)
        assert runner.resumed_count == 0
        with open(progress, "r", encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == len(first.records)

        # A second run reuses every unit from the file: nothing re-executes,
        # and the reused records are the exact objects from the first pass
        # (elapsed timings included, which a re-run could never reproduce).
        rerun = SweepRunner(small_spec())
        second = rerun.run(resume_path=progress)
        assert rerun.resumed_count == len(first.records)
        assert second.records == first.records

    def test_resume_runs_only_missing_units(self, tmp_path):
        progress = str(tmp_path / "progress.jsonl")
        spec = small_spec(seeds=[1])
        SweepRunner(spec).run(resume_path=progress)

        widened = small_spec(seeds=[1, 2])
        runner = SweepRunner(widened)
        result = runner.run(resume_path=progress)
        assert runner.resumed_count == 2  # both grid points of seed 1 reused
        assert len(result.records) == 4
        seeds_run = sorted({record["seed"] for record in result.records})
        assert seeds_run == [1, 2]

    def test_resume_ignores_records_from_a_different_spec(self, tmp_path):
        # Same grid points and seeds but a different step budget: the
        # 12-step records must NOT satisfy the 20-step sweep.
        progress = str(tmp_path / "progress.jsonl")
        SweepRunner(small_spec()).run(resume_path=progress)
        changed = small_spec()
        changed.scenario = dict(changed.scenario, steps=20)
        runner = SweepRunner(changed)
        result = runner.run(resume_path=progress)
        assert runner.resumed_count == 0
        assert all(record["steps"] == 20 for record in result.records)

    def test_resume_tolerates_truncated_progress_line(self, tmp_path):
        from repro.experiments import load_sweep_progress

        progress = str(tmp_path / "progress.jsonl")
        runner = SweepRunner(small_spec())
        runner.run(resume_path=progress)
        with open(progress, "a", encoding="utf-8") as handle:
            handle.write('{"point": {"tau": 0.3}, "se')  # killed mid-write
        completed = load_sweep_progress(progress)
        assert len(completed) == 4

    def test_parallel_resume_matches_inline(self, tmp_path):
        progress = str(tmp_path / "progress.jsonl")
        spec = small_spec(seeds=[1])
        SweepRunner(spec).run(resume_path=progress)
        parallel = SweepRunner(small_spec(seeds=[1, 2], workers=2))
        result = parallel.run(resume_path=progress)
        assert parallel.resumed_count == 2
        assert len([r for r in result.records if r is not None]) == 4

    def test_inline_run_is_deterministic(self):
        first = run_sweep(small_spec())
        second = run_sweep(small_spec())
        strip = lambda rows: [
            {k: v for k, v in row.items() if "second" not in k and "elapsed" not in k}
            for row in rows
        ]
        assert strip(first.records) == strip(second.records)

    def test_parallel_run_matches_inline(self):
        inline = run_sweep(small_spec())
        parallel = run_sweep(small_spec(workers=2))
        assert parallel.workers_used == 2
        strip = lambda rows: [
            {k: v for k, v in row.items() if "second" not in k and "elapsed" not in k}
            for row in rows
        ]
        assert strip(parallel.records) == strip(inline.records)

    def test_target_cluster_tracking(self):
        spec = small_spec(
            grid={},
            seeds=[5],
            track_target_cluster=True,
        )
        spec.scenario["adversary"] = {"kind": "join_leave", "target_cluster": "first"}
        result = run_sweep(spec)
        record = result.records[0]
        assert "target_peak_fraction" in record
        assert 0.0 <= record["target_peak_fraction"] <= 1.0

    def test_shards_is_an_ordinary_grid_key(self):
        """A sweep unit opens its driver through the driver seam, so a
        `shards` axis runs: the sharded unit is `record_scenario`'s result
        field for field, the single-engine one what `Scenario.run` gives."""
        spec = small_spec(grid={"shards": [0, 2]}, seeds=[3])
        spec.scenario.update(initial_size=200, steps=40)
        result = run_sweep(spec)
        assert result.failures() == []
        by_shards = {record["point"]["shards"]: record for record in result.records}
        timing = ("elapsed_seconds", "events_per_second")
        for payload in spec.payloads():
            scenario = Scenario.from_dict(payload["scenario"])
            record = by_shards[scenario.shards]
            corruption, costs = CorruptionTrajectoryProbe(), CostLedgerProbe()
            expected = record_scenario(scenario, probes=[corruption, costs]).result
            for name in (
                "steps", "events", "final_size", "final_cluster_count",
                "final_worst_fraction", "peak_worst_fraction", "safe", "stop_reason",
            ):
                assert record[name] == getattr(expected, name), (scenario.shards, name)
            assert all(record[name] > 0 for name in timing)
            # The standard probes rode the same records on either driver.
            summary = corruption.summary()
            assert record["mean_worst_fraction"] == summary.mean
            assert record["steps_above_threshold"] == summary.steps_above_threshold
            assert record["mean_messages_per_event"] == costs.mean_messages_overall() > 0
        assert by_shards[0]["invariants_ok"] is True
        assert by_shards[2]["invariants_ok"] is True  # the coordinator's composite check

    def test_every_placement_rule_reports_an_invariants_verdict(self):
        """``static_clusters`` never splits, so growth breaks its size bound
        and its record reports ``invariants_ok`` as ``False``."""
        spec = small_spec(grid={"engine": ["now", "static_clusters"]}, seeds=[3])
        spec.scenario.update(steps=150, workload={"kind": "growth", "target_size": 260})
        result = run_sweep(spec)
        assert result.failures() == []
        verdicts = {record["point"]["engine"]: record["invariants_ok"] for record in result.records}
        assert verdicts == {"now": True, "static_clusters": False}

    def test_target_cluster_tracking_on_a_sharded_point_is_refused_up_front(self):
        """The inline target probe has no single engine to read under shards:
        the spec is refused before any unit runs, naming the field and the
        sharded points."""
        spec = small_spec(grid={"shards": [0, 2]}, seeds=[3, 4], track_target_cluster=True)
        spec.scenario.update(initial_size=200, steps=10)
        with pytest.raises(ConfigurationError) as refused:
            spec.payloads()
        assert "track_target_cluster" in str(refused.value)
        assert str(refused.value).endswith("sharded grid point(s): shards=2")
        with pytest.raises(ConfigurationError):
            SweepRunner(spec).run()
        spec.grid = {"shards": [0]}
        for record in run_sweep(spec).records:
            assert 0.0 <= record["target_peak_fraction"] <= 1.0

    def test_metric_lookup_errors_on_unknown(self):
        result = run_sweep(small_spec(grid={}, seeds=[1]))
        with pytest.raises(ConfigurationError):
            result.metric({}, "target_peak_fraction")

    def test_runner_validates_spec(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(small_spec(seeds=[]))
        with pytest.raises(ConfigurationError):
            SweepRunner(small_spec(workers=-1))

    def test_payload_worker_is_self_contained(self):
        payload = small_spec(seeds=[1]).payloads()[0]
        record = run_sweep_payload(json.loads(json.dumps(payload)))
        assert record["events"] > 0
        assert record["walk_hops"] >= 0


class TestRunSweepCli:
    def test_cli_runs_grid_across_two_workers(self, capsys):
        code = main(
            [
                "run-sweep",
                "--name",
                "uniform-churn",
                "--steps",
                "10",
                "--grid",
                "initial_size=120",
                "--num-seeds",
                "2",
                "--workers",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 worker process(es)" in out
        assert "events_per_second" in out
        assert "initial_size=120" in out

    def test_cli_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(small_spec(workers=1).to_json(), encoding="utf-8")
        code = main(["run-sweep", "--spec", str(spec_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "tau=0.1" in out

    def test_cli_rejects_bad_input(self, capsys):
        assert main(["run-sweep"]) == 2
        assert main(["run-sweep", "--name", "uniform-churn", "--grid", "oops"]) == 2
        assert (
            main(["run-sweep", "--name", "uniform-churn", "--metrics", "bogus"]) == 2
        )
        assert main(["run-sweep", "--name", "no-such-preset", "--num-seeds", "1"]) == 2

    def test_cli_refuses_target_tracking_on_a_sharded_grid(self, tmp_path, capsys):
        spec = SweepSpec(
            name="attack", preset="join-leave-attack", grid={"shards": [0, 2]},
            seeds=[1], steps=10, workers=1, track_target_cluster=True,
        )
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(spec.to_json(), encoding="utf-8")
        assert main(["run-sweep", "--spec", str(spec_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "track_target_cluster" in captured.err and "shards=2" in captured.err
