"""Open-loop arrival schedules: Poisson process, log-normal session
lifecycles, diurnal modulation, mix parsing, trace files."""

from __future__ import annotations

import json
import math
import time

import pytest

from repro.errors import ConfigurationError
from repro.workloads.arrivals import (
    DEFAULT_MIX,
    DEFAULT_SESSION_MIX,
    MIX_OPERATIONS,
    Arrival,
    DiurnalProfile,
    LogNormalSessions,
    PoissonArrivals,
    load_arrival_trace,
    parse_mix,
    save_arrival_trace,
)


class TestPoissonArrivals:
    def test_same_seed_same_schedule(self):
        first = PoissonArrivals(rate=200.0, duration=2.0, seed=7).schedule()
        second = PoissonArrivals(rate=200.0, duration=2.0, seed=7).schedule()
        assert first == second

    def test_different_seed_different_schedule(self):
        first = PoissonArrivals(rate=200.0, duration=2.0, seed=7).schedule()
        second = PoissonArrivals(rate=200.0, duration=2.0, seed=8).schedule()
        assert first != second

    def test_schedule_is_sorted_and_bounded(self):
        arrivals = PoissonArrivals(rate=500.0, duration=3.0, seed=1).schedule()
        times = [arrival.at for arrival in arrivals]
        assert times == sorted(times)
        assert all(0.0 < at < 3.0 for at in times)

    def test_rate_is_approximately_honoured(self):
        rate, duration = 400.0, 5.0
        arrivals = PoissonArrivals(rate=rate, duration=duration, seed=3).schedule()
        expected = rate * duration
        # Poisson count: stddev is sqrt(expected); 5 sigma keeps this stable.
        assert abs(len(arrivals) - expected) < 5 * expected**0.5

    def test_mix_proportions_are_approximately_honoured(self):
        mix = {"sample": 0.7, "join": 0.2, "leave": 0.1}
        arrivals = PoissonArrivals(rate=1000.0, duration=4.0, mix=mix, seed=5).schedule()
        counts = {op: 0 for op in mix}
        for arrival in arrivals:
            counts[arrival.op] += 1
        total = len(arrivals)
        for op, weight in mix.items():
            assert abs(counts[op] / total - weight) < 0.05

    def test_default_mix_used_when_unspecified(self):
        process = PoissonArrivals(rate=10.0, duration=1.0)
        assert process.mix == DEFAULT_MIX
        assert process.offered_load == 10.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": 0.0, "duration": 1.0},
            {"rate": -5.0, "duration": 1.0},
            {"rate": 10.0, "duration": 0.0},
            {"rate": 10.0, "duration": 1.0, "mix": {}},
            {"rate": 10.0, "duration": 1.0, "mix": {"teleport": 1.0}},
        ],
    )
    def test_invalid_construction_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(**kwargs)


class TestDiurnalProfile:
    def test_scale_swings_between_trough_and_peak(self):
        profile = DiurnalProfile(day_length=100.0, amplitude=0.8)
        assert profile.scale(0.0) == pytest.approx(0.2)
        assert profile.scale(50.0) == pytest.approx(1.8)
        assert profile.peak == pytest.approx(1.8)

    def test_mean_scale_over_a_cycle_is_one(self):
        profile = DiurnalProfile(day_length=10.0, amplitude=0.6)
        samples = [profile.scale(10.0 * i / 1000) for i in range(1000)]
        assert sum(samples) / len(samples) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"day_length": 0.0},
            {"day_length": -1.0},
            {"day_length": 10.0, "amplitude": 0.0},
            {"day_length": 10.0, "amplitude": 1.0},
            {"day_length": 10.0, "amplitude": 1.5},
        ],
    )
    def test_invalid_construction_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            DiurnalProfile(**kwargs)

    def test_thinned_poisson_is_deterministic_and_rate_preserving(self):
        profile = DiurnalProfile(day_length=4.0, amplitude=0.8)
        first = PoissonArrivals(rate=400.0, duration=8.0, seed=6, diurnal=profile)
        second = PoissonArrivals(rate=400.0, duration=8.0, seed=6, diurnal=profile)
        arrivals = first.schedule()
        assert arrivals == second.schedule()
        # Thinning keeps --rate the cycle average (duration = 2 full cycles).
        expected = 400.0 * 8.0
        assert abs(len(arrivals) - expected) < 5 * expected**0.5

    def test_thinning_shapes_the_cycle(self):
        """More arrivals land mid-cycle (the peak) than at the trough."""
        profile = DiurnalProfile(day_length=10.0, amplitude=0.8)
        arrivals = PoissonArrivals(
            rate=600.0, duration=10.0, seed=2, diurnal=profile
        ).schedule()
        trough = sum(1 for a in arrivals if a.at < 2.0 or a.at >= 8.0)
        peak = sum(1 for a in arrivals if 3.0 <= a.at < 7.0)
        assert peak > 2 * trough


class TestLogNormalSessions:
    def test_same_seed_same_schedule(self):
        first = LogNormalSessions(rate=150.0, duration=4.0, seed=7).schedule()
        second = LogNormalSessions(rate=150.0, duration=4.0, seed=7).schedule()
        assert first == second
        assert first != LogNormalSessions(rate=150.0, duration=4.0, seed=8).schedule()

    def test_schedule_is_sorted_with_paired_lifecycles(self):
        arrivals = LogNormalSessions(
            rate=200.0, duration=5.0, mean_session=2.0, seed=3
        ).schedule()
        times = [a.at for a in arrivals]
        assert times == sorted(times)
        joins = sum(1 for a in arrivals if a.op == "join")
        leaves = sum(1 for a in arrivals if a.op == "leave")
        assert joins == leaves > 0
        # Every leave is a session that joined earlier: at every prefix of
        # the timetable the leave count never exceeds the join count.
        balance = 0
        for arrival in arrivals:
            if arrival.op == "join":
                balance += 1
            elif arrival.op == "leave":
                balance -= 1
            assert balance >= 0
        assert balance == 0

    def test_aggregate_rate_is_approximately_honoured(self):
        rate, duration = 300.0, 6.0
        generator = LogNormalSessions(
            rate=rate, duration=duration, mean_session=1.5, sigma=0.8, seed=5
        )
        arrivals = generator.schedule()
        expected = rate * duration
        # Session lengths add variance beyond the Poisson count, so the
        # tolerance is looser than the plain-process test's 5 sigma.
        assert abs(len(arrivals) - expected) < 0.25 * expected

    def test_sessions_extend_past_the_arrival_window(self):
        """Truncating the tail would defeat a heavy-tail generator."""
        generator = LogNormalSessions(
            rate=120.0, duration=3.0, mean_session=4.0, sigma=1.5, seed=9
        )
        arrivals = generator.schedule()
        assert max(a.at for a in arrivals) > 3.0

    def test_session_lengths_are_heavy_tailed(self):
        """With sigma=1.2 the mean sits far above the median length."""
        generator = LogNormalSessions(
            rate=400.0, duration=10.0, mean_session=5.0, sigma=1.2, seed=4
        )
        median = math.exp(generator.mu)
        assert generator.mean_session / median == pytest.approx(
            math.exp(1.2 * 1.2 / 2.0)
        )
        assert generator.mean_session / median > 2.0

    def test_in_session_mix_defaults_to_read_operations(self):
        generator = LogNormalSessions(rate=50.0, duration=2.0)
        assert generator.mix == DEFAULT_SESSION_MIX
        ops = {a.op for a in generator.schedule()}
        assert ops <= set(DEFAULT_SESSION_MIX) | {"join", "leave"}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": 0.0, "duration": 1.0},
            {"rate": 10.0, "duration": 0.0},
            {"rate": 10.0, "duration": 1.0, "mean_session": 0.0},
            {"rate": 10.0, "duration": 1.0, "sigma": 0.0},
            {"rate": 10.0, "duration": 1.0, "op_rate": -1.0},
            {"rate": 10.0, "duration": 1.0, "mix": {}},
            {"rate": 10.0, "duration": 1.0, "mix": {"join": 1.0}},
            {"rate": 10.0, "duration": 1.0, "mix": {"leave": 1.0}},
            {"rate": 10.0, "duration": 1.0, "mix": {"teleport": 1.0}},
        ],
    )
    def test_invalid_construction_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LogNormalSessions(**kwargs)

    def test_schedule_round_trips_through_the_trace_format(self, tmp_path):
        path = str(tmp_path / "sessions.jsonl")
        arrivals = LogNormalSessions(
            rate=100.0, duration=2.0, seed=2, diurnal=DiurnalProfile(day_length=2.0)
        ).schedule()
        save_arrival_trace(path, arrivals)
        assert load_arrival_trace(path) == arrivals


class TestParseMix:
    def test_normalises_weights(self):
        mix = parse_mix("sample=8, join=1, leave=1")
        assert mix == {"sample": 0.8, "join": 0.1, "leave": 0.1}

    def test_repeated_ops_accumulate(self):
        assert parse_mix("sample=1,sample=3") == {"sample": 1.0}

    def test_zero_weight_ops_dropped(self):
        mix = parse_mix("sample=1,join=0")
        assert mix == {"sample": 1.0}

    @pytest.mark.parametrize(
        "text",
        ["sample", "warp=1", "sample=abc", "sample=-1", "sample=0", ""],
    )
    def test_malformed_mix_rejected(self, text):
        with pytest.raises(ConfigurationError):
            parse_mix(text)


class TestArrivalTraceFiles:
    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "arrivals.jsonl")
        arrivals = PoissonArrivals(rate=100.0, duration=1.0, seed=2).schedule()
        save_arrival_trace(path, arrivals)
        assert load_arrival_trace(path) == arrivals

    def test_load_sorts_by_time(self, tmp_path):
        path = str(tmp_path / "arrivals.jsonl")
        save_arrival_trace(
            path,
            [Arrival(at=1.5, op="sample"), Arrival(at=0.5, op="join")],
        )
        loaded = load_arrival_trace(path)
        assert [arrival.at for arrival in loaded] == [0.5, 1.5]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "arrivals.jsonl"
        path.write_text('{"at": 0.1, "op": "sample"}\n\n{"at": 0.2, "op": "leave"}\n')
        assert len(load_arrival_trace(str(path))) == 2

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"at": 0.1}',
            '{"op": "sample"}',
            '{"at": "soon", "op": "sample"}',
            '{"at": 0.1, "op": "teleport"}',
            '{"at": -0.1, "op": "sample"}',
        ],
    )
    def test_malformed_lines_rejected_with_location(self, tmp_path, line):
        path = tmp_path / "arrivals.jsonl"
        path.write_text('{"at": 0.0, "op": "sample"}\n' + line + "\n")
        with pytest.raises(ConfigurationError, match=":2:"):
            load_arrival_trace(str(path))

    def test_mix_operations_cover_protocol_subset(self):
        from repro.service.protocol import OPERATIONS

        assert set(MIX_OPERATIONS) <= OPERATIONS


class TestNonFiniteInputs:
    """NaN passes every ``<= 0`` check and infinity every upper bound: both
    once made ``schedule()`` loop forever."""

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["rate", "duration"])
    def test_poisson_rejects(self, name, value):
        kwargs = {"rate": 10.0, "duration": 1.0, name: value}
        with pytest.raises(ConfigurationError, match=name):
            PoissonArrivals(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["rate", "duration", "mean_session", "sigma", "op_rate"])
    def test_sessions_reject(self, name, value):
        kwargs = {"rate": 10.0, "duration": 1.0, name: value}
        with pytest.raises(ConfigurationError, match=name):
            LogNormalSessions(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_diurnal_rejects_day_length(self, value):
        with pytest.raises(ConfigurationError, match="day_length"):
            DiurnalProfile(day_length=value)

    @pytest.mark.parametrize("text", ["sample=nan", "sample=inf,join=1"])
    def test_mix_rejects(self, text):
        with pytest.raises(ConfigurationError, match="finite"):
            parse_mix(text)

    @pytest.mark.parametrize("at", ["NaN", "Infinity"])
    def test_trace_rejects_time(self, tmp_path, at):
        path = tmp_path / "arrivals.jsonl"
        path.write_text('{"at": 0.0, "op": "sample"}\n{"at": %s, "op": "sample"}\n' % at)
        with pytest.raises(ConfigurationError, match=":2:.*finite"):
            load_arrival_trace(str(path))

    @pytest.mark.parametrize(
        "flags",
        [["--rate", "nan"], ["--sessions", "lognormal", "--op-rate", "inf"]],
    )
    def test_load_command_exits_2_at_once(self, flags, capsys):
        from repro.cli import main

        started = time.perf_counter()
        assert main(["load", "--port", "1"] + flags) == 2
        assert time.perf_counter() - started < 1.0
        assert "finite" in capsys.readouterr().err
