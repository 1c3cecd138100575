"""Interval schedule tests: interval indices against global time."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import IntervalSchedule


class TestIntervalSchedule:
    def test_interval_boundaries(self):
        schedule = IntervalSchedule(start_time=10.0, interval_length=2.0, num_intervals=3)
        assert schedule.interval_start(1) == 10.0
        assert schedule.interval_end(1) == 12.0
        assert schedule.interval_start(3) == 14.0
        assert schedule.end_time == 16.0

    def test_interval_of_maps_times_correctly(self):
        schedule = IntervalSchedule(0.0, 1.0, 5)
        assert schedule.interval_of(-0.5) == 0  # before phase
        assert schedule.interval_of(0.0) == 1
        assert schedule.interval_of(0.999) == 1
        assert schedule.interval_of(4.5) == 5
        assert schedule.interval_of(5.0) == 6  # after phase == ignored

    def test_midpoint(self):
        schedule = IntervalSchedule(0.0, 2.0, 4)
        assert schedule.midpoint(2) == 3.0

    def test_rejects_out_of_range_interval(self):
        schedule = IntervalSchedule(0.0, 1.0, 3)
        with pytest.raises(SimulationError):
            schedule.interval_start(0)
        with pytest.raises(SimulationError):
            schedule.interval_end(4)

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(SimulationError):
            IntervalSchedule(0.0, 0.0, 3)
        with pytest.raises(SimulationError):
            IntervalSchedule(0.0, 1.0, 0)

    @given(
        start=st.floats(-100, 100),
        length=st.floats(0.01, 10),
        num=st.integers(1, 50),
        k=st.integers(1, 50),
    )
    def test_midpoint_always_inside_its_interval(self, start, length, num, k):
        if k > num:
            k = num
        schedule = IntervalSchedule(start, length, num)
        mid = schedule.midpoint(k)
        assert schedule.interval_start(k) < mid < schedule.interval_end(k)
        assert schedule.interval_of(mid) == k
