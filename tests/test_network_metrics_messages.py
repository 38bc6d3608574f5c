"""Unit tests for message kinds, metrics ledgers and the metrics registry."""

from __future__ import annotations

import pytest

from repro.network.message import MessageKind
from repro.network.metrics import CommunicationMetrics, MetricsRegistry


class TestMessageKind:
    def test_kind_string(self):
        assert str(MessageKind.RANDNUM) == "randnum"


class TestCommunicationMetrics:
    def test_charges_accumulate(self):
        metrics = CommunicationMetrics()
        metrics.charge_messages(10, kind=MessageKind.WALK, label="randcl")
        metrics.charge_messages(5, kind=MessageKind.RANDNUM, label="randcl")
        metrics.charge_rounds(3, label="randcl")
        assert metrics.messages == 15
        assert metrics.rounds == 3
        assert metrics.by_kind["walk"] == 10
        assert metrics.by_kind["randnum"] == 5
        assert metrics.by_label["randcl"] == 15
        assert metrics.rounds_by_label["randcl"] == 3

    def test_rejects_negative_counts(self):
        metrics = CommunicationMetrics()
        with pytest.raises(ValueError):
            metrics.charge_messages(-1)
        with pytest.raises(ValueError):
            metrics.charge_rounds(-1)

    def test_merge_combines_all_counters(self):
        first = CommunicationMetrics()
        first.charge_messages(4, kind=MessageKind.WALK, label="a")
        first.charge_rounds(1, label="a")
        second = CommunicationMetrics()
        second.charge_messages(6, kind=MessageKind.WALK, label="a")
        second.charge_messages(2, kind=MessageKind.CONTROL, label="b")
        second.charge_rounds(2, label="b")
        first.merge(second)
        assert first.messages == 12
        assert first.rounds == 3
        assert first.by_label["a"] == 10
        assert first.by_label["b"] == 2

    def test_snapshot_is_plain_data(self):
        metrics = CommunicationMetrics()
        metrics.charge_messages(1, label="x")
        snap = metrics.snapshot()
        assert snap["messages"] == 1
        assert isinstance(snap["by_label"], dict)

    def test_reset_zeroes_everything(self):
        metrics = CommunicationMetrics()
        metrics.charge_messages(7, label="x")
        metrics.charge_rounds(2)
        metrics.reset()
        assert metrics.messages == 0
        assert metrics.rounds == 0
        assert metrics.by_label == {}


class TestMetricsRegistry:
    def test_scope_is_created_once(self):
        registry = MetricsRegistry()
        scope = registry.scope("join")
        scope.charge_messages(3)
        assert registry.scope("join").messages == 3
        assert "join" in registry.names()

    def test_total_aggregates_scopes(self):
        registry = MetricsRegistry()
        registry.scope("join").charge_messages(3)
        registry.scope("leave").charge_messages(4)
        registry.scope("leave").charge_rounds(2)
        total = registry.total()
        assert total.messages == 7
        assert total.rounds == 2

    def test_reset_single_scope(self):
        registry = MetricsRegistry()
        registry.scope("join").charge_messages(3)
        registry.scope("leave").charge_messages(4)
        registry.reset("join")
        assert registry.scope("join").messages == 0
        assert registry.scope("leave").messages == 4

    def test_reset_all(self):
        registry = MetricsRegistry()
        registry.scope("a").charge_messages(1)
        registry.scope("b").charge_messages(2)
        registry.reset()
        assert registry.total().messages == 0

    def test_snapshot_keys(self):
        registry = MetricsRegistry()
        registry.scope("join").charge_messages(1)
        snap = registry.snapshot()
        assert set(snap.keys()) == {"join"}
