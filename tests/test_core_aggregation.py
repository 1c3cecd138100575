"""Aggregation phase (Section IV-B): minima, audit tuples, junk detection."""

from __future__ import annotations

import pytest

from repro import MinQuery, build_deployment, small_test_config
from repro.adversary import Adversary, DropMinimumStrategy, JunkMinimumStrategy
from repro.core.aggregation import run_aggregation
from repro.core.protocol import install_execution
from repro.core.tree import form_tree
from repro.crypto.mac import compute_mac
from repro.net.message import ReadingMessage
from repro.topology import line_topology

NONCE = b"agg-test-nonce"


def sign_all(deployment, readings, nonce=NONCE):
    return install_execution(deployment.network, readings, MinQuery(), nonce)


def run(deployment, adversary, readings, depth_bound, verify=lambda i, m: True):
    own = sign_all(deployment, readings)
    if adversary is not None:
        mal = deployment.network.malicious_ids
        mal_readings = {i: readings[i] for i in mal}
        mal_msgs = {
            i: [
                ReadingMessage(
                    sensor_id=i,
                    value=readings[i],
                    mac=compute_mac(
                        deployment.registry.sensor_key(i), i, 0, readings[i], NONCE
                    ),
                )
            ]
            for i in mal
        }
        adversary.begin_execution(mal_readings, {i: [readings[i]] for i in mal}, mal_msgs)
    form_tree(deployment.network, adversary, depth_bound)
    return run_aggregation(
        deployment.network, adversary, depth_bound, NONCE, own, 1, verify
    )


class TestHonestAggregation:
    def test_minimum_reaches_base_station(self, line_deployment):
        readings = {i: 100.0 + i for i in line_deployment.topology.sensor_ids}
        readings[9] = 3.0
        result = run(line_deployment, None, readings, 12)
        assert result.minimum_values() == [3.0]
        assert result.junk is None

    def test_minimum_message_carries_true_origin(self, deployment):
        readings = {i: 50.0 + i for i in deployment.topology.sensor_ids}
        readings[17] = 2.0
        result = run(deployment, None, readings, deployment.config.protocol.depth_bound)
        assert result.minima[0].sensor_id == 17
        assert result.carrying_delivery[0] is not None

    def test_audit_records_on_path(self, line_deployment):
        readings = {i: 100.0 + i for i in line_deployment.topology.sensor_ids}
        readings[9] = 3.0
        run(line_deployment, None, readings, 12)
        # Every intermediate node forwarded the 3.0 value at its level.
        audit = line_deployment.network.audit
        for node_id in range(1, 9):
            assert any(
                audit.aggregation_sends.message[row].value == 3.0
                for row in audit.aggregation_sends.rows_of(node_id)
            ), f"node {node_id} missing forward record"
            assert any(
                audit.aggregation_receipts.message[row].value == 3.0
                for row in audit.aggregation_receipts.rows_of(node_id)
            ), f"node {node_id} missing receipt record"

    def test_receipt_intervals_match_level_arithmetic(self, line_deployment):
        L = 12
        readings = {i: 100.0 + i for i in line_deployment.topology.sensor_ids}
        run(line_deployment, None, readings, L)
        receipts = line_deployment.network.audit.aggregation_receipts
        assert len(receipts)
        level = line_deployment.network.node_columns.level
        for node_id in line_deployment.network.honest_sensors:
            for row in receipts.rows_of(node_id):
                assert receipts.position[row] == L - level[node_id]

    def test_ties_resolve_deterministically(self, line_deployment):
        readings = {i: 5.0 for i in line_deployment.topology.sensor_ids}
        result = run(line_deployment, None, readings, 12)
        # lowest sensor id wins the tie by the message total order
        assert result.minima[0].sensor_id == 1


class TestAttackedAggregation:
    def test_dropper_suppresses_minimum(self):
        dep = build_deployment(
            config=small_test_config(depth_bound=12),
            topology=line_topology(8),
            malicious_ids={3},
            seed=4,
        )
        adv = Adversary(dep.network, DropMinimumStrategy(), seed=4)
        readings = {i: 100.0 + i for i in dep.topology.sensor_ids}
        readings[7] = 1.0
        result = run(dep, adv, readings, 12)
        # The dropper forwarded its own reading instead of 1.0.
        assert result.minimum_values()[0] > 1.0
        assert result.junk is None  # dropping is silent, not spurious

    def test_junk_detected_by_verifier(self):
        dep = build_deployment(
            config=small_test_config(depth_bound=12),
            topology=line_topology(8),
            malicious_ids={3},
            seed=4,
        )
        adv = Adversary(dep.network, JunkMinimumStrategy(junk_value=-5.0), seed=4)
        readings = {i: 100.0 + i for i in dep.topology.sensor_ids}

        def verify(instance, message):
            key = dep.registry.sensor_key(message.sensor_id)
            from repro.crypto.mac import verify_mac

            return verify_mac(key, message.mac, message.sensor_id, message.instance,
                              message.value, NONCE)

        result = run(dep, adv, readings, 12, verify=verify)
        assert result.junk is not None
        instance, message, delivery = result.junk
        assert message.value == -5.0
        # Honest ancestors forwarded the junk — the carrying delivery at
        # the BS came from the innocent node 1.
        assert delivery.sender == 1

    def test_missing_own_messages_is_a_protocol_error(self, line_deployment):
        from repro.errors import ProtocolError

        readings = {i: 1.0 for i in line_deployment.topology.sensor_ids}
        sign_all(line_deployment, readings)
        form_tree(line_deployment.network, None, 12)
        with pytest.raises(ProtocolError):
            run_aggregation(
                line_deployment.network, None, 12, NONCE, {}, 1, lambda i, m: True
            )

    def test_forged_beacon_sender_gives_no_link(self):
        """The adversary may forge a frame's sender field (§III).  A
        beacon claiming a sender that is not the victim's radio
        neighbour makes it the victim's parent, but not a link: the
        victim's bundle skips it rather than failing the phase."""
        from repro.net.message import TreeBeacon

        from tests.conftest import make_attacked_deployment

        victim, relay = 4, 3
        deployment = make_attacked_deployment({relay})
        net = deployment.network
        forged = next(
            other for other in (1, 2, 6, 7)
            if net.registry.edge_key_index(victim, other) is not None
        )

        class ForgingRelay:
            def tree_interval(self, ctx, node_id, k):
                if k == 1:
                    beacon = TreeBeacon(origin=forged, hop_count=1)
                    ctx.phase.send(node_id, [victim], beacon, interval=1, claimed_sender=forged)

        readings = {i: 100.0 + i for i in deployment.topology.sensor_ids}
        own = sign_all(deployment, readings)
        form_tree(net, ForgingRelay(), 12)
        assert net.node_columns.parents(victim) == [forged]
        result = run_aggregation(net, None, 12, NONCE, own, 1, lambda i, m: True)
        assert result.minimum_values() == [101.0]
        assert not net.audit.aggregation_sends.rows_of(victim)


class TestAtomicSlot:
    def test_sender_out_of_capacity_fails_the_slot_before_it_lands(self, grid_deployment):
        """A slot whose honest sender is already out of capacity raises
        before any of its frames, bytes or capacity charges land, even
        for the senders ahead of it in the block."""
        from repro.core.aggregation import SlotSchedule
        from repro.errors import ProtocolError
        from repro.net.message import SynopsisBundle

        net = grid_deployment.network
        readings = {i: 100.0 + i for i in grid_deployment.topology.sensor_ids}
        own = sign_all(grid_deployment, readings)
        form_tree(net, None, 10)
        phase = net.new_phase("aggregation", 10)
        schedule = SlotSchedule(net, phase, list(net.honest_sensors), 1, own_messages=own)
        level = max(schedule._groups, key=lambda lv: len(schedule._groups[lv]))
        senders = [schedule.ids[p] for p in schedule._groups[level]]
        assert len(senders) >= 2
        k = 10 - level + 1
        for interval in range(1, k + 1):
            phase.begin_interval(interval)
        victim = senders[-1]
        for hop in range(net.config.network.forwarding_capacity):
            phase.send(victim, net.secure_neighbors(victim)[:1],
                       SynopsisBundle(messages=tuple(own[victim])), interval=k)
        assert phase.remaining_capacity(victim, k) == 0
        rows_before = len(phase.rows(k)[0])
        metrics_before = net.metrics.to_dict()
        charges_before = dict(phase._payloads_per_interval)

        with pytest.raises(ProtocolError, match=f"honest sensor {victim} exceeded capacity"):
            schedule.tick(k)
        assert len(phase.rows(k)[0]) == rows_before
        assert net.metrics.to_dict() == metrics_before
        assert phase._payloads_per_interval == charges_before
        assert not set(net.audit.aggregation_sends.node) & set(senders)


class TestEmptyNetworkEdgeCases:
    def test_no_arrivals_yields_none_minimum(self):
        # Malicious node adjacent to the BS swallows everything.
        dep = build_deployment(
            config=small_test_config(depth_bound=6),
            topology=line_topology(4),
            malicious_ids={1},
            seed=4,
        )
        adv = Adversary(dep.network, DropMinimumStrategy(), seed=4)
        readings = {i: 10.0 for i in dep.topology.sensor_ids}
        result = run(dep, adv, readings, 6)
        # The dropper still forwards its OWN reading, so the BS hears it:
        assert result.minimum_values() == [10.0]
