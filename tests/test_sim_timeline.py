"""Execution timelines and slotted guard-band validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClockConfig
from repro.errors import SimulationError
from repro.sim import (
    execution_latency_seconds,
    pinpointing_duration,
    plan_execution,
    simulate_slot_timing,
)

CLOCK = ClockConfig(interval_length=1.0, max_error=0.05)


class TestPlanExecution:
    def test_six_phases_back_to_back(self):
        timeline = plan_execution(depth_bound=8, clock=CLOCK)
        assert len(timeline.phases) == 6
        for previous, current in zip(timeline.phases, timeline.phases[1:]):
            assert current.start_time == previous.end_time

    def test_total_duration_is_6L_intervals(self):
        timeline = plan_execution(depth_bound=8, clock=CLOCK)
        assert timeline.total_duration == pytest.approx(6 * 8 * 1.0)

    def test_duration_independent_of_network_size_constants(self):
        # O(1) flooding rounds: latency depends on L, never on n — the
        # planner does not even take n.
        a = plan_execution(5, CLOCK).total_duration
        b = plan_execution(10, CLOCK).total_duration
        assert b == 2 * a

    def test_phase_lookup(self):
        timeline = plan_execution(4, CLOCK)
        assert timeline.phase("aggregation").duration == pytest.approx(4.0)
        with pytest.raises(SimulationError):
            timeline.phase("nonexistent")

    def test_describe_rows(self):
        rows = plan_execution(3, CLOCK).describe()
        assert rows[0][0] == "tree-announce"
        assert rows[-1][0] == "confirmation"

    def test_rejects_bad_depth(self):
        with pytest.raises(SimulationError):
            plan_execution(0, CLOCK)


class TestPinpointingDuration:
    def test_two_rounds_per_test(self):
        assert pinpointing_duration(8, predicate_tests=10, clock=CLOCK) == 160.0

    def test_zero_tests_zero_time(self):
        assert pinpointing_duration(8, 0, CLOCK) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(SimulationError):
            pinpointing_duration(8, -1, CLOCK)

    def test_latency_composition(self):
        total = execution_latency_seconds(8, CLOCK, predicate_tests=10)
        assert total == pytest.approx(6 * 8 + 160.0)


class TestEngineDrivenGuardBands:
    def test_all_receivers_observe_intended_interval(self):
        mismatches = simulate_slot_timing(
            num_nodes=20, depth_bound=6, clock_config=CLOCK, seed=3
        )
        assert mismatches  # something was simulated
        assert all(count == 0 for count in mismatches.values())

    def test_specific_sends(self):
        mismatches = simulate_slot_timing(
            num_nodes=5,
            depth_bound=4,
            clock_config=CLOCK,
            seed=1,
            sends=[(0, 1), (3, 4)],
        )
        assert set(mismatches) == {(0, 1), (3, 4)}
        assert all(count == 0 for count in mismatches.values())

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 500),
        depth=st.integers(1, 12),
        max_error=st.floats(0.0, 0.2),
    )
    def test_guard_band_property_under_engine(self, seed, depth, max_error):
        clock = ClockConfig(interval_length=1.0, max_error=max_error)
        mismatches = simulate_slot_timing(
            num_nodes=10, depth_bound=depth, clock_config=clock, seed=seed
        )
        assert all(count == 0 for count in mismatches.values())

    def test_without_guard_bands_mismatches_would_occur(self):
        """Counterfactual: naive midpoint-by-global-clock sends with a
        coarse interval DO cross boundaries for skewed receivers —
        demonstrating the guard band is load-bearing, not decorative."""
        from repro.sim import ClockAssignment, IntervalSchedule
        from repro.sim.clock import observed_interval

        # Interval barely longer than 2*Delta; a sender at +Delta/2
        # aiming at its own midpoint lands near the global boundary.
        clock = ClockConfig(interval_length=0.21, max_error=0.1)
        clocks = ClockAssignment(range(50), clock, seed=4)
        schedule = IntervalSchedule(0.0, 0.21, 5)
        boundary_crossings = 0
        for sender in range(50):
            # naive (WRONG) rule: transmit at the interval's global start
            send_time = schedule.interval_start(3)
            for receiver in range(50):
                if observed_interval(schedule, send_time, clocks.offsets[receiver]) != 3:
                    boundary_crossings += 1
        assert boundary_crossings > 0
