"""Revocation state and the θ-threshold rule (Section VI-C)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RevocationError
from repro.keys.revocation import RevocationState
from repro.keys.soa import RingTable

#: Padding keys start here: each belongs to one sensor only and no test
#: revokes one individually (revoking that sensor dumps them with its ring).
PAD_BASE = 1000


def make_table(rings):
    """Ring table over ``{sensor: ring}`` for sensors ``1..n``.

    Rings shorter than the longest are padded to one length with keys
    only that sensor holds.  The pool covers every index below
    ``PAD_BASE`` plus the padding.
    """
    width = max(len(ring) for ring in rings.values())
    rows = [
        list(rings[sensor])
        + [PAD_BASE + width * sensor + j for j in range(width - len(rings[sensor]))]
        for sensor in range(1, len(rings) + 1)
    ]
    return RingTable.from_rows(rows, PAD_BASE + width * (len(rings) + 1))


def make_state(rings, theta=None, cascade=False):
    """State over :func:`make_table`'s table."""
    return RevocationState(make_table(rings), theta=theta, cascade=cascade)


class TestBasicRevocation:
    def test_revoke_key_marks_and_counts(self):
        state = make_state({1: [10, 11], 2: [11, 12]})
        events = state.revoke_key(11)
        assert state.is_key_revoked(11)
        assert state.revoked_ring_count(1) == 1
        assert state.revoked_ring_count(2) == 1
        assert [e.kind for e in events] == ["key"]

    def test_revoke_key_idempotent(self):
        state = make_state({1: [10]})
        state.revoke_key(10)
        assert state.revoke_key(10) == []

    def test_revoke_sensor_revokes_whole_ring(self):
        state = make_state({1: [10, 11, 12], 2: [12, 13]})
        events = state.revoke_sensor(1)
        assert state.is_sensor_revoked(1)
        assert state.revoked_keys == {10, 11, 12}
        kinds = [e.kind for e in events]
        assert kinds.count("sensor") == 1 and kinds.count("key") == 3

    def test_revoke_sensor_idempotent(self):
        state = make_state({1: [10]})
        state.revoke_sensor(1)
        assert state.revoke_sensor(1) == []

    def test_unknown_sensor_rejected(self):
        state = make_state({1: [10]})
        with pytest.raises(RevocationError):
            state.revoke_sensor(99)
        with pytest.raises(RevocationError):
            state.revoked_ring_count(99)

    def test_holders_of(self):
        # The state counts a revoked key against these holders.
        table = make_table({3: [10], 1: [10], 2: [11]})
        assert table.holders(10) == (1, 3)
        assert table.holders(999) == ()
        state = RevocationState(table)
        state.revoke_key(10)
        assert [state.revoked_ring_count(s) for s in (1, 2, 3)] == [1, 0, 1]

    def test_log_records_everything(self):
        state = make_state({1: [10, 11]})
        state.revoke_key(10, reason="test-a")
        state.revoke_sensor(1, reason="test-b")
        reasons = [e.reason for e in state.log]
        assert "test-a" in reasons and "test-b" in reasons

    def test_key_outside_pool_rejected(self):
        table = make_table({1: [10, 11]})
        state = RevocationState(table)
        for index in (-1, 2 * PAD_BASE, 10**9):
            with pytest.raises(RevocationError):
                state.revoke_key(index)
            assert table.holders(index) == ()
        assert state.log == [] and state.revoked_keys == frozenset()


class TestThresholdRule:
    def test_sensor_revoked_at_theta(self):
        state = make_state({1: [10, 11, 12]}, theta=2)
        state.revoke_key(10)
        assert not state.is_sensor_revoked(1)
        events = state.revoke_key(11)
        assert state.is_sensor_revoked(1)
        assert any(e.kind == "sensor" and e.target == 1 for e in events)
        # the ring remainder is revoked too
        assert state.is_key_revoked(12)

    def test_threshold_event_names_trigger_key(self):
        state = make_state({1: [10, 11]}, theta=2)
        state.revoke_key(10)
        events = state.revoke_key(11)
        sensor_event = next(e for e in events if e.kind == "sensor")
        assert sensor_event.triggered_by_key == 11
        assert "theta" in sensor_event.reason

    def test_no_threshold_when_disabled(self):
        state = make_state({1: [10, 11]}, theta=None)
        state.revoke_key(10)
        state.revoke_key(11)
        assert not state.is_sensor_revoked(1)
        assert state.threshold_pending() == set()

    def test_no_cascade_by_default(self):
        # Revoking sensor 1's whole ring is bookkeeping, not evidence:
        # sensor 2's exposed count stays 0 and it survives, now and in
        # any later threshold pass.
        state = make_state({1: [10, 11, 12], 2: [11, 12, 13]}, theta=2)
        state.revoke_sensor(1)
        assert not state.is_sensor_revoked(2)
        assert state.revoked_ring_count(2) == 2
        assert state.exposed_ring_count(2) == 0
        assert state.threshold_pending() == set()
        # A later individual revocation elsewhere must not sweep 2 up.
        state.revoke_key(20)
        assert not state.is_sensor_revoked(2)

    def test_exposed_keys_still_frame_honest_sensors(self):
        # The true Figure-7 framing risk: keys individually revoked in
        # attacks DO count for every holder, so an honest sensor sharing
        # >= θ exposed keys with the adversary is mis-revoked.
        state = make_state({1: [10, 11, 12], 2: [11, 12, 13]}, theta=2)
        state.revoke_key(11)
        state.revoke_key(12)
        assert state.is_sensor_revoked(1)
        assert state.is_sensor_revoked(2)

    def test_cascade_propagates(self):
        state = make_state({1: [10, 11, 12], 2: [11, 12, 13]}, theta=2, cascade=True)
        state.revoke_sensor(1)
        assert state.is_sensor_revoked(2)

    def test_cascade_chains_transitively(self):
        rings = {
            1: [1, 2],
            2: [1, 2, 3],  # shares both of 1's keys -> falls, exposing 3
            3: [2, 3, 4],  # now has 2 and 3 revoked -> falls, exposing 4
            4: [3, 4, 5],  # now has 3 and 4 revoked -> falls
        }
        state = make_state(rings, theta=2, cascade=True)
        state.revoke_sensor(1)
        assert state.is_sensor_revoked(2)
        assert state.is_sensor_revoked(3)
        assert state.is_sensor_revoked(4)


    def test_direct_key_revocations_all_processed_in_one_pass(self):
        # Two sensors pushed over θ by the same key revocation.
        state = make_state({1: [10, 11], 2: [10, 11]}, theta=2)
        state.revoke_key(10)
        state.revoke_key(11)
        assert state.is_sensor_revoked(1) and state.is_sensor_revoked(2)

    def test_rejects_bad_theta(self):
        with pytest.raises(RevocationError):
            make_state({1: [1]}, theta=0)


class TestRevocationProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        theta=st.integers(1, 4),
    )
    def test_threshold_invariant(self, data, theta):
        """After any sequence of key revocations, every unrevoked sensor
        is strictly below θ *unless* it crossed only via ring-induced
        revocations (no-cascade semantics)."""
        length = data.draw(st.integers(1, 8))
        rings = {
            sensor: data.draw(
                st.lists(st.integers(0, 30), min_size=length, max_size=length, unique=True)
            )
            for sensor in range(1, 6)
        }
        state = make_state(rings, theta=theta, cascade=True)
        keys = data.draw(st.lists(st.integers(0, 30), max_size=10))
        for key in keys:
            state.revoke_key(key)
        # With cascade=True the fixed point must hold everywhere:
        assert state.threshold_pending() == set()
        # And revoked sensors' entire rings are revoked:
        for sensor in state.revoked_sensors:
            assert all(state.is_key_revoked(k) for k in rings[sensor])

    @settings(max_examples=30, deadline=None)
    @given(keys=st.lists(st.integers(0, 20), max_size=15))
    def test_counts_match_ground_truth(self, keys):
        rings = {1: [0, 1, 2, 3], 2: [2, 3, 4, 5], 3: [10, 11]}
        state = make_state(rings, theta=None)
        for key in keys:
            state.revoke_key(key)
        for sensor, ring in rings.items():
            expected = sum(1 for k in ring if state.is_key_revoked(k))
            assert state.revoked_ring_count(sensor) == expected
