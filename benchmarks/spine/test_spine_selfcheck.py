"""Self-check of the measurement spine (tier-1, no sockets, a few seconds).

Pins the arithmetic every reported number goes through — the per-event
minimum over same-seed passes, the quietest window, span self times, the
verdict rule — plus schedule determinism and the agreement between
``BENCHMARK.json`` and the names the benchmark emits.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import compare  # noqa: E402
import plan  # noqa: E402
import spans  # noqa: E402
from driver import Phase, build_schedule, mix_sequence  # noqa: E402
from estimators import (  # noqa: E402
    percentile, repeat_gap, spread, windowed_percentile,
)
from run import load_contract  # noqa: E402


def test_quietest_window_when_windows_are_fat_and_pooled_when_thin():
    fat = [[float(i) * 2 for i in range(2000)], [float(i) for i in range(2000)],
           [float(i) * 3 for i in range(2000)]]
    assert windowed_percentile(fat, 0.99) == pytest.approx(percentile(fat[1], 0.99))
    assert windowed_percentile(fat + [[]], 0.99) == pytest.approx(percentile(fat[1], 0.99))
    thin = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    assert windowed_percentile(thin, 0.99) == pytest.approx(percentile([1, 2, 3, 4, 5, 6], 0.99))
    # 20 samples are enough for a median, far too few for a p99.
    twenty = [[float(i) for i in range(20)], [float(i) + 100 for i in range(20)]]
    assert windowed_percentile(twenty, 0.5) == pytest.approx(9.5)
    assert percentile([10.0, 20.0], 0.5) == pytest.approx(15.0)
    assert spread([1.0]) == 0.0
    assert spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(0.15)


def test_event_cost_is_the_minimum_over_same_seed_passes():
    import batch

    passes = [{"event_seconds": [1.0, 5.0, 2.0]}, {"event_seconds": [3.0, 1.0, 2.5]}]
    assert batch.quiet_event_seconds(passes) == [1.0, 1.0, 2.0]
    # Two seeds, two rounds: a round's time is one pass of every seed.
    other = [{"event_seconds": [2.0]}, {"event_seconds": [0.5]}]
    assert batch.round_totals([passes, other]) == [10.0, 7.0]
    assert batch.pass_spread([10.0, 7.0]) == pytest.approx(3.0 / 8.5)


def test_span_self_time_on_a_hand_built_tree():
    # root [0,10] > a [1,4] > b [2,3];  root > a [5,9];  stray top-level c [20,21]
    tree = [
        ("root", 0.0, 10.0, -1, None),
        ("a", 1.0, 4.0, 0, 1),
        ("b", 2.0, 3.0, 1, 1),
        ("a", 5.0, 9.0, 0, 2),
        None,  # a span still open at dump time
        ("c", 20.0, 21.0, 4, 3),
    ]
    totals = spans.self_times(tree)
    assert totals["root"] == [1, pytest.approx(3.0)]
    assert totals["a"] == [2, pytest.approx(6.0)]
    assert totals["b"] == [1, pytest.approx(1.0)]
    assert totals["c"] == [1, pytest.approx(1.0)]
    assert sum(entry[1] for entry in totals.values()) == pytest.approx(11.0)
    assert spans.root_seconds(tree, "root") == pytest.approx(10.0)
    assert spans.root_seconds(tree, "c") == pytest.approx(1.0)


def test_counted_leaves_move_time_without_creating_any():
    payload = {
        "spans": [["core.exchange_all", 0.0, 1.0, -1, 1]],
        "counts": [["core.exchange_all", "core.randnum", 1000], [spans.ROOT, "network.charge", 10]],
    }
    leaves = {"core.randnum": {"us_per_call": 300.0, "exclusive_us": 200.0}}
    table = spans.layer_table([payload], leaves)
    assert table["core.randnum"] == {"calls": 1000, "self_s": pytest.approx(0.2)}
    assert table["core.exchange_all"]["self_s"] == pytest.approx(0.8)
    assert table["network.charge"] == {"calls": 10, "self_s": 0.0}
    metrics = spans.point_metrics(table, {name: {"us_per_call": 1.0} for name in spans.COUNTED_NAMES}, 10)
    assert metrics["core.randnum.calls_per_op"] == pytest.approx(100.0)
    assert metrics["core.exchange_all.self_us_per_op"] == pytest.approx(80000.0)


def test_recorder_wraps_and_restores():
    class Target:
        def work(self, value):
            return value + 1

        @classmethod
        def build(cls):
            return cls()

    module = sys.modules[__name__]
    module.SpineTarget = Target
    points = (
        spans.Point("outer", (f"{__name__}:SpineTarget.build",)),
        spans.Point("leaf", (f"{__name__}:SpineTarget.work",), counted=True),
        spans.Point("gone", (f"{__name__}:SpineTarget.no_such_method",)),
    )
    recorder = spans.Recorder()
    recorder.install(points)
    try:
        assert Target.build().work(1) == 2
    finally:
        recorder.uninstall()
    assert recorder.missing == [f"{__name__}:SpineTarget.no_such_method"]
    assert [span[0] for span in recorder.spans] == ["outer"]
    assert recorder.counts == {(spans.ROOT, "leaf"): 1}
    assert "__wrapped__" not in vars(Target.work)


def test_repeat_gap_reads_the_quiet_end():
    # Times: the two quietest passes agree, whatever the third did.
    assert repeat_gap([5.0, 9.0, 5.5]) == pytest.approx(0.1)
    # Rates: the third-best burst is what the top three rest on.
    assert repeat_gap([6000.0, 10000.0, 7000.0, 9000.0], best=max, count=3) == pytest.approx(0.3)
    assert repeat_gap([4.2]) == 0.0


def test_schedule_is_a_function_of_the_seed():
    phase = Phase("ref", 500.0, 0.5, 3)
    mix = plan.SERVE["serve-reads"]["mix"]
    first = build_schedule(phase, mix, seed=48, first_id=7)
    again = build_schedule(phase, mix, seed=48, first_id=7)
    other = build_schedule(phase, mix, seed=49, first_id=7)
    assert first == again
    assert first != other
    assert all(0.0 <= request.due < phase.seconds for request in first)
    assert json.loads(first[0].frame)["id"] == 7
    # Work scales with --seconds only: same arguments, same sizes.
    assert plan.batch_events("churn-oracle", 20, False) == plan.batch_events("churn-oracle", 20.0, False)
    assert plan.batch_events("churn-oracle", 20, True) < plan.batch_events("churn-oracle", 20, False)
    steps = plan.serve_steps("serve-reads", 20, traced=False)["untraced"]
    assert steps == plan.serve_steps("serve-reads", 20.0, traced=False)["untraced"]
    # The untraced run is equal bursts and nothing else.
    assert steps == [plan.burst_requests("serve-reads", 20)] * plan.SERVE["serve-reads"]["bursts"]
    ladder = plan.serve_steps("serve-reads", 20, traced=True)["untraced"]
    assert [step.name for step in ladder if isinstance(step, Phase)] == ["ref", "hi", "top"]


def test_equal_bursts_hold_the_same_operations():
    for workload, config in plan.SERVE.items():
        names = sorted(config["mix"])
        first = mix_sequence(config["mix"], seed=1, count=300)
        other = mix_sequence(config["mix"], seed=2, count=300)
        assert first == mix_sequence(config["mix"], seed=1, count=300)
        assert first != other
        for block in (first[:100], first[100:200], other[200:]):
            for index, name in enumerate(names):
                assert block.count(index) == round(config["mix"][name] * 100), (workload, name)
    # Shares that do not divide the block: largest remainders fill it.
    thirds = mix_sequence({"a": 1.0, "b": 1.0, "c": 1.0}, seed=3, count=100)
    assert sorted(thirds.count(index) for index in range(3)) == [33, 33, 34]


def test_verdicts():
    assert compare.verdict(100.0, 80.0, "higher", 0.1, False) == "worse"
    assert compare.verdict(100.0, 95.0, "higher", 0.1, False) == "same"
    assert compare.verdict(100.0, 120.0, "higher", 0.1, False) == "better"
    assert compare.verdict(1.0, 1.2, "lower", 0.1, False) == "worse"
    assert compare.verdict(1.0, 1.2, "lower", 0.1, True) == "unresolved"
    assert compare.verdict(0.0, 0.0, "lower", 0.0, False) == "same"
    assert compare.verdict(0.0, 0.01, "lower", 0.0, False) == "worse"


def test_compare_voids_only_the_flagged_metric_and_refuses_other_work():
    def record(ops, noisy, seed=47, setup=0.3):
        run = {
            "noisy": noisy,
            "end_to_end": {"setup_s": setup, "ops_per_s": ops, "peak_rss_mb": 40.0},
            "detail": {"failed_share": 0.0},
        }
        return {
            "envelope": {"schema": "spine-1", "seed": seed, "seconds": 20.0},
            "workloads": {"serve-reads": {"untraced": run}},
        }

    contract = load_contract()

    def verdicts(bases, candidates):
        return {row[1]: row[-1] for row in compare.compare(bases, candidates, contract)}

    rows = verdicts([record(100.0, [])], [record(50.0, ["ops_per_s"], setup=0.6)])
    assert rows["ops_per_s"] == "unresolved"
    assert rows["setup_s"] == "worse"  # a flag on one metric excuses no other
    assert rows["peak_rss_mb"] == rows["failed_share"] == "same"
    assert verdicts([record(100.0, [])], [record(50.0, [])])["ops_per_s"] == "worse"
    # Several records a side: medians, and the side's own spread as its noise.
    steady = [record(ops, ["ops_per_s"]) for ops in (99.0, 100.0, 101.0)]
    assert verdicts(steady, [record(ops, []) for ops in (98.0, 100.0, 103.0)])["ops_per_s"] == "same"
    assert verdicts(steady, [record(ops, []) for ops in (40.0, 60.0, 100.0)])["ops_per_s"] == "unresolved"
    # ... unless every record of one side beats every record of the other.
    assert verdicts(steady, [record(ops, []) for ops in (40.0, 60.0, 98.0)])["ops_per_s"] == "worse"
    assert compare.mismatch([record(1.0, [])], [record(1.0, [])] * 2) == []
    assert compare.mismatch([record(1.0, [])], [record(1.0, [], seed=48)]) == [
        "spine-1/47/20.0", "spine-1/48/20.0"
    ]
    both = [record(1.0, []), record(1.0, [], seed=48)]
    assert compare.mismatch(both, both[::-1]) == []


def test_benchmark_json_names_what_the_benchmark_emits():
    data = load_contract()
    name_rule = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    assert [spec["name"] for spec in data["workloads"]] == list(plan.WORKLOADS)
    assert data["paths"] == ["benchmarks/spine"]
    end_to_end = {spec["name"]: (spec["unit"], spec["better"]) for spec in data["end_to_end"]}
    assert end_to_end == plan.END_TO_END
    per_layer = {spec["name"]: (spec["unit"], spec["better"]) for spec in data["per_layer"]}
    assert per_layer == plan.per_layer_metrics()
    assert len(per_layer) <= 128
    names = list(plan.WORKLOADS) + list(end_to_end) + list(per_layer)
    assert len(names) == len(set(names))
    for name in names:
        assert name_rule.fullmatch(name), name
    for spec in data["end_to_end"]:
        assert 0 < spec["bound"] <= 0.25
