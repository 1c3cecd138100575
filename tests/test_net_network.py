"""Network layer: phases, edge MACs, capacity, secure topology."""

from __future__ import annotations

import pytest

from repro import build_deployment, small_test_config
from repro.errors import NetworkError
from repro.net.message import TreeBeacon
from repro.topology import line_topology


def beacon(origin=0, hop=1):
    return TreeBeacon(origin=origin, hop_count=hop)


@pytest.fixture
def net(deployment):
    return deployment.network


class TestPhaseDiscipline:
    def test_intervals_advance_sequentially(self, net):
        phase = net.new_phase("t", 3)
        assert list(phase.intervals()) == [1, 2, 3]

    def test_out_of_order_interval_rejected(self, net):
        phase = net.new_phase("t", 3)
        phase.begin_interval(1)
        with pytest.raises(NetworkError):
            phase.begin_interval(3)

    def test_cannot_send_into_past(self, net):
        phase = net.new_phase("t", 3)
        phase.begin_interval(1)
        phase.begin_interval(2)
        with pytest.raises(NetworkError):
            phase.send(0, net.secure_neighbors(0), beacon(), interval=1)

    def test_send_beyond_phase_is_silent_noop(self, net):
        phase = net.new_phase("t", 3)
        phase.begin_interval(1)
        assert phase.send(0, net.secure_neighbors(0), beacon(), interval=4) is False

    def test_inbox_unreadable_before_interval_begins(self, net):
        phase = net.new_phase("t", 3)
        with pytest.raises(NetworkError):
            phase.inbox(1, 1)

    def test_phase_sequence_monotone(self, net):
        a = net.new_phase("a", 1)
        b = net.new_phase("b", 1)
        assert b.sequence > a.sequence


class TestDelivery:
    def test_honest_send_is_verified_at_receiver(self, net):
        neighbor = net.secure_neighbors(0)[0]
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        phase.send(0, [neighbor], beacon(), interval=1)
        inbox = phase.verified_inbox(neighbor, 1)
        assert len(inbox) == 1
        assert inbox[0].sender == 0
        assert inbox[0].verified

    def test_self_send_rejected(self, net):
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        with pytest.raises(NetworkError):
            phase.send(1, [1], beacon(), interval=1)

    def test_nonneighbor_send_rejected_for_honest(self, net):
        far = next(
            i for i in net.topology.sensor_ids if not net.topology.has_edge(0, i)
        )
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        with pytest.raises(NetworkError):
            phase.send(0, [far], beacon(), interval=1)

    def test_invalid_receiver_leaves_send_without_effect(self, net):
        # The valid neighbour comes first: a send that validated and
        # charged receiver by receiver would already have delivered and
        # byte-charged it, and spent the sender's capacity, when the
        # non-neighbour raised.
        neighbor = net.secure_neighbors(0)[0]
        far = next(
            i for i in net.topology.sensor_ids if not net.topology.has_edge(0, i)
        )
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        capacity = phase.remaining_capacity(0, 1)
        before = net.metrics.to_dict()
        with pytest.raises(NetworkError):
            phase.send(0, [neighbor, far], beacon(), interval=1)
        assert phase.inbox(neighbor, 1) == []
        assert phase.inbox(far, 1) == []
        assert net.metrics.to_dict() == before
        assert phase.remaining_capacity(0, 1) == capacity

    def test_unheld_key_leaves_send_without_effect(self):
        dep = build_deployment(num_nodes=10, seed=1, malicious_ids={2})
        net = dep.network
        outside = next(
            i for i in range(dep.config.keys.pool_size)
            if i not in net.adversary_pool_indices()
        )
        receivers = sorted(net.topology.neighbors(2))
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        before = net.metrics.to_dict()
        with pytest.raises(NetworkError):
            phase.send(2, receivers, beacon(), interval=1, key_index=outside)
        assert all(phase.inbox(r, 1) == [] for r in receivers)
        assert net.metrics.to_dict() == before
        assert phase.remaining_capacity(2, 1) == net.config.network.forwarding_capacity

    def test_exhausted_sender_returns_false_before_validation(self, net):
        cap = net.config.network.forwarding_capacity
        neighbor = net.secure_neighbors(0)[0]
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        for i in range(cap):
            phase.send(0, [neighbor], beacon(hop=i), interval=1)
        assert phase.send(0, [0], beacon(), interval=1) is False

    def test_bytes_accounted(self, net):
        neighbor = net.secure_neighbors(0)[0]
        before = net.metrics.bytes_sent[0]
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        phase.send(0, [neighbor], beacon(), interval=1)
        assert net.metrics.bytes_sent[0] > before
        assert net.metrics.bytes_received[neighbor] > 0


class TestKeyPossession:
    def test_cannot_mac_with_unheld_key(self):
        dep = build_deployment(num_nodes=10, seed=1, malicious_ids={2})
        net = dep.network
        outside = next(
            i for i in range(dep.config.keys.pool_size)
            if i not in net.adversary_pool_indices()
        )
        neighbor = net.topology.neighbors(2)
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        with pytest.raises(NetworkError):
            phase.send(2, list(neighbor)[:1], beacon(), interval=1, key_index=outside)

    def test_malicious_can_use_pooled_loot(self):
        dep = build_deployment(num_nodes=10, seed=1, malicious_ids={2, 3})
        net = dep.network
        # A key from 3's ring, usable by 2 (colluding loot).
        key = dep.registry.ring(3).indices[0]
        target = list(net.topology.neighbors(2))[0]
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        assert phase.send(2, [target], beacon(), interval=1, key_index=key) is True
        delivered = phase.inbox(target, 1)
        assert len(delivered) == 1
        # Verified only if the honest target happens to hold the key.
        holds = target != 0 and key in dep.registry.ring(target)
        assert delivered[0].verified == (holds and net.is_honest_sensor(target))

    def test_forged_claimed_sender_rejected_only_by_mac_content(self):
        dep = build_deployment(num_nodes=10, seed=1, malicious_ids={2})
        net = dep.network
        target = list(net.topology.neighbors(2))[0]
        key = net.registry.edge_key_index(2, target)
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        phase.send(2, [target], beacon(), interval=1, key_index=key, claimed_sender=7)
        inbox = phase.inbox(target, 1)
        assert inbox[0].sender == 7  # forged claim carried through
        # still verified: edge MACs authenticate the KEY, not the sender.
        if net.is_honest_sensor(target) and key in dep.registry.ring(target):
            assert inbox[0].verified


class TestCapacity:
    def test_capacity_limits_distinct_payloads_per_interval(self, net):
        cap = net.config.network.forwarding_capacity
        neighbor = net.secure_neighbors(0)[0]
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        sent = [
            phase.send(0, [neighbor], beacon(hop=i), interval=1)
            for i in range(cap + 3)
        ]
        assert sent.count(True) == cap
        assert phase.suppressed_sends == 3
        assert phase.remaining_capacity(0, 1) == 0

    def test_capacity_resets_per_interval(self, net):
        cap = net.config.network.forwarding_capacity
        neighbor = net.secure_neighbors(0)[0]
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        for i in range(cap):
            phase.send(0, [neighbor], beacon(hop=i), interval=1)
        phase.begin_interval(2)
        assert phase.remaining_capacity(0, 2) == cap


class TestSecureTopology:
    def test_secure_neighbors_subset_of_radio(self, net):
        for node in list(net.topology.node_ids)[:5]:
            assert set(net.secure_neighbors(node)) <= set(net.topology.neighbors(node))

    def test_revoking_sensor_removes_its_links(self, net):
        victim = net.secure_neighbors(0)[0]
        net.registry.revoke_sensor(victim)
        assert victim not in net.secure_neighbors(0)

    def test_honest_component_excludes_malicious(self):
        dep = build_deployment(
            config=small_test_config(depth_bound=12),
            topology=line_topology(6),
            malicious_ids={3},
            seed=2,
        )
        component = dep.network.honest_secure_component()
        assert component == {0, 1, 2}

    def test_effective_depth_bound(self):
        dep = build_deployment(
            config=small_test_config(depth_bound=12),
            topology=line_topology(6),
            seed=2,
        )
        assert dep.network.effective_depth_bound() == 5

    def test_base_station_cannot_be_malicious(self):
        with pytest.raises(NetworkError):
            build_deployment(num_nodes=10, seed=1, malicious_ids={0})


class TestAuthenticatedFlood:
    def test_payload_reaches_all_honest_nodes(self, net):
        payload = net.authenticated_flood("hello", 42)
        assert payload == ("hello", 42)
        for node_id in net.honest_sensors:
            assert net.node_columns.broadcast_index[node_id] >= 1

    def test_flood_costs_one_round(self, net):
        before = net.metrics.flooding_rounds
        net.authenticated_flood("x")
        assert net.metrics.flooding_rounds == before + 1.0

    def test_flood_charges_bytes(self, net):
        net.authenticated_flood("x")
        assert all(net.metrics.bytes_received[i] > 0 for i in net.honest_sensors)
