"""Bounded-error clocks and the guard-band technique (Section IV-A)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.config import ClockConfig
from repro.errors import SimulationError
from repro.sim import ClockAssignment, IntervalSchedule
from repro.sim.clock import (
    check_offset,
    global_time,
    local_time,
    observed_interval,
    safe_send_time,
)


class TestLocalClock:
    """One sensor's clock is its offset: the guard-band arithmetic."""

    def test_local_and_global_round_trip(self):
        assert global_time(local_time(5.0, 0.02), 0.02) == pytest.approx(5.0)

    def test_rejects_offset_beyond_half_delta(self):
        with pytest.raises(SimulationError):
            check_offset(0.5, ClockConfig(max_error=0.05))

    def test_safe_send_time_lands_inside_interval(self):
        config = ClockConfig(interval_length=1.0, max_error=0.05)
        schedule = IntervalSchedule(0.0, 1.0, 5)
        for offset in (-0.025, 0.0, 0.025):
            send = safe_send_time(schedule, 3, offset, config)
            assert schedule.interval_of(send) == 3

    def test_guard_band_holds_for_every_honest_receiver(self):
        """The paper's claim: a guarded send is observed in the same
        interval by any receiver whose clock error is within Delta."""
        config = ClockConfig(interval_length=1.0, max_error=0.2)
        schedule = IntervalSchedule(0.0, 1.0, 5)
        send_time = safe_send_time(schedule, 2, 0.1, config)
        for receiver_offset in (-0.1, -0.05, 0.0, 0.05, 0.1):
            assert observed_interval(schedule, send_time, receiver_offset) == 2

    @given(
        sender_offset=st.floats(-0.025, 0.025),
        receiver_offset=st.floats(-0.025, 0.025),
        interval=st.integers(1, 8),
    )
    def test_guard_band_property(self, sender_offset, receiver_offset, interval):
        config = ClockConfig(interval_length=1.0, max_error=0.05)
        schedule = IntervalSchedule(0.0, 1.0, 8)
        send_time = safe_send_time(schedule, interval, sender_offset, config)
        assert observed_interval(schedule, send_time, receiver_offset) == interval


class TestClockAssignment:
    def test_base_station_has_zero_offset(self):
        clocks = ClockAssignment(range(10), ClockConfig(), seed=3)
        assert clocks.offsets[0] == 0.0

    def test_all_offsets_within_half_delta(self):
        config = ClockConfig(max_error=0.05)
        clocks = ClockAssignment(range(100), config, seed=1)
        for node in range(100):
            assert abs(clocks.offsets[node]) <= config.max_error / 2

    def test_pairwise_error_bounded_by_delta(self):
        config = ClockConfig(max_error=0.05)
        clocks = ClockAssignment(range(100), config, seed=2)
        assert clocks.max_pairwise_error() <= config.max_error

    def test_deterministic_given_seed(self):
        a = ClockAssignment(range(20), ClockConfig(), seed=9)
        b = ClockAssignment(range(20), ClockConfig(), seed=9)
        assert all(a.offsets[i] == b.offsets[i] for i in range(20))

    def test_different_seeds_differ(self):
        a = ClockAssignment(range(20), ClockConfig(), seed=1)
        b = ClockAssignment(range(20), ClockConfig(), seed=2)
        assert any(a.offsets[i] != b.offsets[i] for i in range(1, 20))

    def test_len_and_contains(self):
        clocks = ClockAssignment(range(5), ClockConfig(), seed=0)
        assert len(clocks) == 5
        assert 3 in clocks
        assert 7 not in clocks
