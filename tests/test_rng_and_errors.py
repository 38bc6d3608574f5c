"""Unit tests for the RNG utilities and the exception hierarchy."""

from __future__ import annotations

import random

import pytest

from repro import errors
from repro.rng import (
    choice_weighted,
    derive_rng,
    make_rng,
    restore_rng,
    rng_state_from_json,
    rng_state_to_json,
    sample_without_replacement,
    shuffled,
)


class TestRngStateSerialisation:
    def test_round_trip_is_exact(self):
        rng = make_rng(17)
        rng.random()  # move off the seed position
        state = rng.getstate()
        assert rng_state_from_json(rng_state_to_json(state)) == state

    def test_round_trip_survives_json_text(self):
        import json

        rng = make_rng(23)
        for _ in range(10):
            rng.random()
        encoded = json.loads(json.dumps(rng_state_to_json(rng.getstate())))
        restored = restore_rng(encoded)
        # The restored generator continues the stream bit-identically.
        assert [restored.random() for _ in range(100)] == [rng.random() for _ in range(100)]
        assert restored.getrandbits(64) == rng.getrandbits(64)

    def test_gauss_carry_state_is_preserved(self):
        # gauss() banks a second variate inside the state tuple; a round
        # trip must carry it, or the streams desynchronise by one draw.
        rng = make_rng(5)
        rng.gauss(0.0, 1.0)
        twin = restore_rng(rng_state_to_json(rng.getstate()))
        assert [twin.gauss(0.0, 1.0) for _ in range(5)] == [
            rng.gauss(0.0, 1.0) for _ in range(5)
        ]

    def test_restored_stream_is_independent_object(self):
        rng = make_rng(1)
        twin = restore_rng(rng_state_to_json(rng.getstate()))
        assert twin is not rng
        twin.random()
        assert twin.getstate() != rng.getstate()


class TestMakeAndDerive:
    def test_same_seed_same_stream(self):
        first = make_rng(7)
        second = make_rng(7)
        assert [first.random() for _ in range(5)] == [second.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_derive_is_deterministic(self):
        child_a = derive_rng(make_rng(3), "adversary")
        child_b = derive_rng(make_rng(3), "adversary")
        assert child_a.random() == child_b.random()

    def test_derive_labels_decorrelate(self):
        parent = make_rng(3)
        child_a = derive_rng(parent, "a")
        parent2 = make_rng(3)
        child_b = derive_rng(parent2, "b")
        assert child_a.random() != child_b.random()


class TestChoiceWeighted:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            choice_weighted(make_rng(0), [], [])

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            choice_weighted(make_rng(0), ["a"], [0.0])

    def test_single_item(self):
        assert choice_weighted(make_rng(0), ["only"], [3.0]) == "only"

    def test_respects_weights_statistically(self):
        rng = make_rng(11)
        counts = {"heavy": 0, "light": 0}
        for _ in range(2000):
            counts[choice_weighted(rng, ["heavy", "light"], [9.0, 1.0])] += 1
        assert counts["heavy"] > counts["light"] * 4


class TestSampling:
    def test_sample_without_replacement_distinct(self):
        rng = make_rng(5)
        picked = sample_without_replacement(rng, range(100), 10)
        assert len(picked) == 10
        assert len(set(picked)) == 10

    def test_sample_more_than_available_returns_all(self):
        rng = make_rng(5)
        picked = sample_without_replacement(rng, range(4), 10)
        assert sorted(picked) == [0, 1, 2, 3]

    def test_shuffled_preserves_elements(self):
        rng = make_rng(5)
        items = list(range(50))
        result = shuffled(rng, items)
        assert sorted(result) == items
        assert items == list(range(50))  # input untouched


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in (
            "ConfigurationError",
            "ProtocolViolationError",
            "UnknownNodeError",
            "UnknownClusterError",
            "AgreementError",
            "WalkError",
        ):
            exc_type = getattr(errors, name)
            assert issubclass(exc_type, errors.ReproError)

    def test_catching_base_class(self):
        with pytest.raises(errors.ReproError):
            raise errors.WalkError("boom")
