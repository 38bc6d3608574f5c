"""Unit tests for the protocol parameter bundle."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.params import ProtocolParameters, default_parameters, log_base


class TestLogBase:
    def test_log_of_power_of_two(self):
        assert log_base(1024, 2.0) == pytest.approx(10.0)

    def test_log_guards_small_values(self):
        assert log_base(1.0) == 1.0
        assert log_base(0.5) == 1.0

    def test_log_other_base(self):
        assert log_base(1000, 10.0) == pytest.approx(3.0)


class TestParameterValidation:
    def test_default_construction(self):
        params = default_parameters(max_size=1024)
        assert params.max_size == 1024
        assert params.tau <= 1.0 / 3.0 - params.epsilon + 1e-12

    def test_rejects_tiny_max_size(self):
        with pytest.raises(ConfigurationError):
            ProtocolParameters(max_size=2)

    def test_rejects_non_positive_k(self):
        with pytest.raises(ConfigurationError):
            ProtocolParameters(max_size=1024, k=0)

    def test_rejects_small_l(self):
        with pytest.raises(ConfigurationError):
            ProtocolParameters(max_size=1024, l=1.2)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ConfigurationError):
            ProtocolParameters(max_size=1024, alpha=-0.1)

    def test_rejects_tau_above_resilience(self):
        with pytest.raises(ConfigurationError):
            ProtocolParameters(max_size=1024, tau=0.32, epsilon=0.05)

    def test_rejects_tau_out_of_range(self):
        with pytest.raises(ConfigurationError):
            ProtocolParameters(max_size=1024, tau=-0.1)

    def test_rejects_non_positive_epsilon(self):
        with pytest.raises(ConfigurationError):
            ProtocolParameters(max_size=1024, epsilon=0.0)

    def test_rejects_bad_log_base(self):
        with pytest.raises(ConfigurationError):
            ProtocolParameters(max_size=1024, log_base_value=1.0)

    @pytest.mark.parametrize(
        "field",
        [
            "k",
            "l",
            "alpha",
            "tau",
            "epsilon",
            "log_base_value",
            "degree_constant",
            "walk_length_constant",
            "walk_repeats_constant",
            "max_size",
            "min_size",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fields(self, field, value):
        """A NaN slips past every ``<`` / ``<=`` guard, so each field is
        checked for finiteness by name before the range checks."""
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            ProtocolParameters(**{"max_size": 1024, field: value})

    @pytest.mark.parametrize(
        "field", ["degree_constant", "walk_length_constant", "walk_repeats_constant"]
    )
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_rejects_non_positive_walk_and_degree_constants(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be positive"):
            ProtocolParameters(**{"max_size": 1024, field: value})

    def test_accepts_boundary_tau(self):
        params = ProtocolParameters(max_size=1024, tau=1.0 / 3.0 - 0.05, epsilon=0.05)
        assert params.tau == pytest.approx(1.0 / 3.0 - 0.05)


class TestDerivedQuantities:
    def test_target_cluster_size_is_k_log_n(self):
        params = ProtocolParameters(max_size=1024, k=2.0)
        assert params.target_cluster_size == 20  # 2 * log2(1024)

    def test_target_cluster_size_has_floor(self):
        params = ProtocolParameters(max_size=8, k=0.1)
        assert params.target_cluster_size >= 3

    def test_split_threshold_above_target(self):
        params = ProtocolParameters(max_size=1024, k=2.0, l=2.0)
        assert params.split_threshold > params.target_cluster_size
        assert params.split_threshold == 40

    def test_merge_threshold_below_target(self):
        params = ProtocolParameters(max_size=1024, k=2.0, l=2.0)
        assert params.merge_threshold < params.target_cluster_size
        assert params.merge_threshold == 10

    def test_split_after_bisection_stays_above_merge(self):
        """A freshly split half must not immediately trigger a merge (l > sqrt 2)."""
        for max_size in (256, 1024, 65536):
            params = ProtocolParameters(max_size=max_size, k=2.0, l=1.5)
            half_of_split = params.split_threshold // 2
            assert half_of_split >= params.merge_threshold

    def test_overlay_degree_target_and_cap(self):
        params = ProtocolParameters(max_size=1024, alpha=0.1, degree_constant=3.0)
        assert params.overlay_degree_target >= 2
        assert params.overlay_degree_cap >= params.overlay_degree_target

    def test_overlay_edge_probability_in_range(self):
        params = ProtocolParameters(max_size=1024)
        assert 0.0 < params.overlay_edge_probability <= 1.0

    def test_overlay_edge_probability_caps_at_one(self):
        params = ProtocolParameters(max_size=16)
        assert params.overlay_edge_probability == 1.0

    def test_lower_size_bound_default_is_sqrt(self):
        params = ProtocolParameters(max_size=1024)
        assert params.lower_size_bound == int(math.floor(math.sqrt(1024)))

    def test_lower_size_bound_override(self):
        params = ProtocolParameters(max_size=1024, min_size=50)
        assert params.lower_size_bound == 50

    def test_walk_length_grows_with_size(self):
        params = ProtocolParameters(max_size=65536)
        assert params.walk_length(65536) > params.walk_length(256)

    def test_walk_repeats_positive(self):
        params = ProtocolParameters(max_size=1024)
        assert params.walk_repeats(100) >= 1

    def test_initial_cluster_count(self):
        params = ProtocolParameters(max_size=1024, k=2.0)
        assert params.initial_cluster_count(200) == 200 // params.target_cluster_size

    def test_expected_divergence_bound(self):
        params = ProtocolParameters(max_size=1024, tau=0.2, epsilon=0.1)
        assert params.expected_divergence_bound == pytest.approx(0.2 * 1.1)

    def test_with_updates_returns_new_object(self):
        params = ProtocolParameters(max_size=1024, k=2.0)
        updated = params.with_updates(k=4.0)
        assert updated.k == 4.0
        assert params.k == 2.0
        assert updated.max_size == params.max_size

    def test_byzantine_alarm_fraction_is_one_third(self):
        params = ProtocolParameters(max_size=1024)
        assert params.byzantine_alarm_fraction == pytest.approx(1.0 / 3.0)
