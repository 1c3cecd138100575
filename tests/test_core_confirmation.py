"""Confirmation phase + SOF (Section IV-C), including Lemma 1."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import MinQuery, build_deployment, small_test_config
from repro.adversary import Adversary, SpuriousVetoStrategy
from repro.core.confirmation import run_confirmation
from repro.core.protocol import install_execution
from repro.core.tree import form_tree
from repro.topology import grid_topology, line_topology

NONCE = b"conf-test-nonce"


def prepare(deployment, readings, adversary=None, depth_bound=12):
    # Confirmation requires an aggregation send record to exist for
    # honest vetoers in the end-to-end flow; here we test SOF alone, so
    # levels from tree formation suffice.
    install_execution(deployment.network, readings, MinQuery(), NONCE)
    if adversary is not None:
        mal = deployment.network.malicious_ids
        adversary.begin_execution(
            {i: readings[i] for i in mal}, {i: [readings[i]] for i in mal}, {i: [] for i in mal}
        )
    form_tree(deployment.network, adversary, depth_bound)


class TestSilentConfirmation:
    def test_no_veto_when_broadcast_is_true_minimum(self, line_deployment):
        readings = {i: 10.0 + i for i in line_deployment.topology.sensor_ids}
        prepare(line_deployment, readings)
        result = run_confirmation(line_deployment.network, None, 12, NONCE, [11.0])
        assert result.silent

    def test_equal_reading_does_not_veto(self, line_deployment):
        # Vetoing requires strictly smaller (the minimum itself must not
        # veto its own broadcast).
        readings = {i: 5.0 for i in line_deployment.topology.sensor_ids}
        prepare(line_deployment, readings)
        result = run_confirmation(line_deployment.network, None, 12, NONCE, [5.0])
        assert result.silent


class TestVetoDelivery:
    def test_single_vetoer_reaches_base_station(self, line_deployment):
        readings = {i: 10.0 + i for i in line_deployment.topology.sensor_ids}
        readings[9] = 1.0
        prepare(line_deployment, readings)
        result = run_confirmation(line_deployment.network, None, 12, NONCE, [11.0])
        assert result.valid_veto is not None
        veto, delivery, interval = result.valid_veto
        assert veto.sensor_id == 9
        assert veto.value == 1.0
        # The vetoer sits at depth 9: its veto needs 9 intervals.
        assert interval == 9

    def test_audit_trail_length_bounded(self, line_deployment):
        L = 12
        readings = {i: 10.0 + i for i in line_deployment.topology.sensor_ids}
        readings[9] = 1.0
        prepare(line_deployment, readings)
        run_confirmation(line_deployment.network, None, L, NONCE, [11.0])
        # SOF: each forwarder records interval = predecessor + 1 <= L.
        audit = line_deployment.network.audit
        assert len(audit.confirmation_sends) and len(audit.confirmation_receipts)
        assert all(1 <= interval <= L for interval in audit.confirmation_sends.position)
        assert all(1 <= interval <= L - 1 for interval in audit.confirmation_receipts.position)

    def test_one_time_forwarding(self, grid_deployment):
        readings = {i: 10.0 for i in grid_deployment.topology.sensor_ids}
        # multiple vetoers
        for vetoer in (12, 18, 24):
            readings[vetoer] = 1.0
        prepare(grid_deployment, readings, depth_bound=10)
        run_confirmation(grid_deployment.network, None, 10, NONCE, [5.0])
        sends = grid_deployment.network.audit.confirmation_sends
        for node_id in grid_deployment.network.honest_sensors:
            distinct_intervals = {sends.position[r] for r in sends.rows_of(node_id)}
            # a node transmits its veto payload in exactly one interval
            assert len(distinct_intervals) <= 1

    def test_multiple_vetoers_one_suffices(self, grid_deployment):
        readings = {i: 10.0 for i in grid_deployment.topology.sensor_ids}
        for vetoer in (6, 12, 18):
            readings[vetoer] = 1.0
        prepare(grid_deployment, readings, depth_bound=10)
        result = run_confirmation(grid_deployment.network, None, 10, NONCE, [5.0])
        assert result.valid_veto is not None


class TestSpuriousVetoes:
    def test_spurious_veto_classified(self):
        dep = build_deployment(
            config=small_test_config(depth_bound=10),
            topology=grid_topology(4, 4),
            malicious_ids={5},
            seed=8,
        )
        adv = Adversary(dep.network, SpuriousVetoStrategy(), seed=8)
        readings = {i: 10.0 for i in dep.topology.sensor_ids}
        prepare(dep, readings, adversary=adv, depth_bound=10)
        result = run_confirmation(dep.network, adv, 10, NONCE, [5.0])
        assert result.spurious_veto is not None
        assert result.valid_veto is None  # nobody honest had reason to veto

    def test_lemma1_spurious_cannot_silence_sof(self):
        """Lemma 1: an honest vetoer guarantees the base station receives
        SOME veto, even under spurious-veto injection."""
        dep = build_deployment(
            config=small_test_config(depth_bound=10),
            topology=grid_topology(4, 4),
            malicious_ids={5, 10},
            seed=8,
        )
        adv = Adversary(dep.network, SpuriousVetoStrategy(), seed=8)
        readings = {i: 10.0 for i in dep.topology.sensor_ids}
        readings[15] = 1.0  # honest vetoer in the far corner
        prepare(dep, readings, adversary=adv, depth_bound=10)
        result = run_confirmation(dep.network, adv, 10, NONCE, [5.0])
        assert not result.silent  # Lemma 1

    @settings(max_examples=10, deadline=None)
    @given(vetoer=st.integers(1, 24), seed=st.integers(0, 5))
    def test_lemma1_property_over_vetoer_placement(self, vetoer, seed):
        dep = build_deployment(
            config=small_test_config(depth_bound=10),
            topology=grid_topology(5, 5),
            seed=seed,
        )
        readings = {i: 10.0 for i in dep.topology.sensor_ids}
        readings[vetoer] = 1.0
        prepare(dep, readings, depth_bound=10)
        result = run_confirmation(dep.network, None, 10, NONCE, [5.0])
        assert result.valid_veto is not None
