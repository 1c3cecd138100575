"""Config validation: every config that constructs is consistent."""

from __future__ import annotations

import math

import pytest

from repro.config import (
    ClockConfig,
    ExperimentConfig,
    KeyConfig,
    NetworkConfig,
    ProtocolConfig,
    RevocationConfig,
    small_test_config,
)
from repro.errors import ConfigError


class TestClockConfig:
    def test_defaults_valid(self):
        clock = ClockConfig()
        assert clock.interval_length > 2 * clock.max_error

    def test_rejects_interval_shorter_than_guard_bands(self):
        with pytest.raises(ConfigError):
            ClockConfig(interval_length=0.1, max_error=0.06)

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ConfigError):
            ClockConfig(interval_length=0.0)

    def test_rejects_negative_error(self):
        with pytest.raises(ConfigError):
            ClockConfig(max_error=-0.1)

    def test_guard_band_equals_max_error(self):
        assert ClockConfig(max_error=0.02).guard_band == 0.02


class TestKeyConfig:
    def test_paper_defaults(self):
        keys = KeyConfig()
        assert keys.pool_size == 100_000
        assert keys.ring_size == 250

    def test_paper_edge_key_probability_about_half(self):
        # Section IX: "any two sensors can find at least one common edge
        # key with probability around 0.5".
        p = KeyConfig().edge_key_probability()
        assert 0.4 < p < 0.55

    def test_edge_key_probability_monotone_in_ring_size(self):
        p_small = KeyConfig(pool_size=1000, ring_size=10).edge_key_probability()
        p_large = KeyConfig(pool_size=1000, ring_size=50).edge_key_probability()
        assert p_large > p_small

    def test_full_pool_ring_guarantees_edge_key(self):
        p = KeyConfig(pool_size=100, ring_size=100).edge_key_probability()
        assert p == pytest.approx(1.0)

    def test_rejects_ring_larger_than_pool(self):
        with pytest.raises(ConfigError):
            KeyConfig(pool_size=10, ring_size=11)


class TestRevocationConfig:
    def test_default_theta_is_paper_value(self):
        assert RevocationConfig().theta == 27

    def test_rejects_zero_theta(self):
        with pytest.raises(ConfigError):
            RevocationConfig(theta=0)


class TestProtocolConfig:
    def test_defaults(self):
        protocol = ProtocolConfig()
        assert protocol.num_synopses == 100
        assert protocol.domain_size == 10_001

    def test_rejects_inverted_domain(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(reading_min=5, reading_max=4)

    def test_rejects_zero_depth(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(depth_bound=0)


class TestNetworkConfig:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigError):
            NetworkConfig(forwarding_capacity=0)


class TestExperimentConfig:
    def test_with_depth_bound_returns_new_config(self):
        config = ExperimentConfig()
        deeper = config.with_depth_bound(25)
        assert deeper.protocol.depth_bound == 25
        assert config.protocol.depth_bound == 10  # original untouched

    def test_small_test_config_shrinks_pool(self):
        config = small_test_config()
        assert config.keys.pool_size < KeyConfig().pool_size
        # and raises pairwise shared-key probability to near certainty
        assert config.keys.edge_key_probability() > 0.99

    def test_configs_are_frozen(self):
        config = ExperimentConfig()
        with pytest.raises(Exception):
            config.protocol = ProtocolConfig()  # type: ignore[misc]
