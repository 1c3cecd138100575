"""Link-layer edge cases: acceptance matrix, floods under partition,
revocation-aware delivery."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import build_deployment, small_test_config
from repro.crypto import BroadcastAuthority, BroadcastVerifier, KeyDisclosure
from repro.crypto.authenticated_broadcast import AuthenticatedMessage
from repro.net.message import TreeBeacon
from repro.topology import line_topology


def beacon(hop=1):
    return TreeBeacon(origin=0, hop_count=hop)


class TestReceiverAcceptanceMatrix:
    """Every way an honest receiver's link layer can reject a frame."""

    @pytest.fixture
    def net(self):
        return build_deployment(num_nodes=12, seed=3, malicious_ids={4}).network

    def test_accepts_genuine_neighbor_frame(self, net):
        target = net.secure_neighbors(0)[0]
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        phase.send(0, [target], beacon(), interval=1)
        assert phase.verified_inbox(target, 1)

    def test_rejects_frame_on_revoked_key(self, net):
        sender, receiver = 4, list(net.topology.neighbors(4))[0]
        key = net.registry.edge_key_index(sender, receiver)
        assert key is not None
        net.registry.revoke_key(key)
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        # The adversary keeps using the revoked key anyway.
        phase.send(sender, [receiver], beacon(), interval=1, key_index=key)
        inbox = phase.inbox(receiver, 1)
        assert inbox and not inbox[0].verified

    def test_rejects_key_the_receiver_does_not_hold(self, net):
        # The adversary signs with a compromised key its victim lacks.
        sender = 4
        receiver = next(
            r for r in net.topology.neighbors(sender) if net.is_honest_sensor(r)
        )
        foreign = next(
            i
            for i in net.registry.ring(sender)
            if not net.registry.node_holds(receiver, i)
        )
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        phase.send(sender, [receiver], beacon(), interval=1, key_index=foreign)
        inbox = phase.inbox(receiver, 1)
        assert inbox and not inbox[0].verified

    def test_no_shared_key_means_no_frame_at_all(self):
        # Paper-sparse keys: some radio neighbours share nothing.
        from repro.config import ExperimentConfig, KeyConfig, ProtocolConfig

        config = ExperimentConfig(
            keys=KeyConfig(pool_size=5_000, ring_size=10),
            protocol=ProtocolConfig(depth_bound=8),
        )
        dep = build_deployment(config=config, num_nodes=25, seed=3)
        net = dep.network
        pair = next(
            (
                (a, b)
                for a, b in net.topology.edges()
                if a != 0 and b != 0 and net.registry.edge_key_index(a, b) is None
            ),
            None,
        )
        if pair is None:
            pytest.skip("sparse draw produced no keyless link this seed")
        a, b = pair
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        phase.send(a, [b], beacon(), interval=1)
        assert phase.inbox(b, 1) == []  # nothing even hits the inbox

    def test_base_station_accepts_any_held_key(self, net):
        neighbor = net.secure_neighbors(0)[0]
        # Any key in the neighbour's ring works toward the BS.
        key = net.registry.ring(neighbor)[-1]
        phase = net.new_phase("t", 2)
        phase.begin_interval(1)
        phase.send(neighbor, [0], beacon(), interval=1, key_index=key)
        assert phase.verified_inbox(0, 1)


class TestFloodUnderPartition:
    def test_partitioned_sensors_not_reached(self):
        dep = build_deployment(
            config=small_test_config(depth_bound=10),
            topology=line_topology(6),
            malicious_ids={2},
            seed=3,
        )
        net = dep.network
        net.authenticated_flood("hello")
        # Sensors 3..5 sit beyond the malicious cut vertex: outside the
        # honest secure component, the [20] primitive cannot reach them.
        index = net.node_columns.broadcast_index
        assert index[1] == 1
        for stranded in (3, 4, 5):
            assert index[stranded] == 0


class TestBroadcastIndexColumn:
    """A sensor's broadcast state is its verified-index column cell."""

    @pytest.fixture
    def deployment(self):
        return build_deployment(num_nodes=16, seed=5)

    def test_missed_rounds_verify_across_the_gap(self, deployment):
        from repro.faults import FaultInjector, FaultPlan
        from repro.faults.plan import BroadcastLoss

        net = deployment.network
        victim = net.honest_sensors[3]
        plan = FaultPlan(
            "gap",
            events=(BroadcastLoss(round=2, nodes=(victim,)),
                    BroadcastLoss(round=3, nodes=(victim,))),
        )
        FaultInjector(plan, seed=1).attach(net)
        payloads = [("round", i) for i in range(1, 5)]
        for payload in payloads:
            net.authenticated_flood(*payload)
        assert net.node_columns.crash_suspected[victim]
        # A standalone verifier fed only the rounds the victim heard.
        authority = BroadcastAuthority(deployment.registry.pool.broadcast_chain_seed())
        verifier = BroadcastVerifier(authority.anchor)
        for round_index, payload in enumerate(payloads, start=1):
            message = authority.sign(*payload)
            disclosure = authority.disclose(message.index)
            if round_index in (2, 3):
                continue
            verifier.receive_message(message)
            assert verifier.receive_disclosure(disclosure) == payload
        index = net.node_columns.broadcast_index
        assert index[victim] == verifier.verified_index == 4
        assert net.verified_chain_value(int(index[victim])) == verifier.chain_head
        others = [n for n in net.honest_sensors if n != victim]
        assert all(index[n] == 4 for n in others)

    def test_corrupted_index_is_an_authenticity_violation(self, deployment):
        from repro.invariants import BroadcastAuthenticity, ExecutionView

        net = deployment.network
        for i in range(3):
            net.authenticated_flood("round", i)
        view = ExecutionView(query="min", outcome="result", network=net)
        assert BroadcastAuthenticity().check(view) == []
        victim = net.honest_sensors[2]
        net.node_columns.broadcast_index[victim] = 7  # never verified
        violations = BroadcastAuthenticity().check(view)
        assert [v.context["node"] for v in violations] == [victim]

    def test_corrupted_chain_value_is_an_authenticity_violation(self, deployment):
        from repro.invariants import BroadcastAuthenticity, ExecutionView

        net = deployment.network
        for i in range(2):
            net.authenticated_flood("round", i)
        net._chain_values[2] = b"\x00" * len(net._chain_values[2])
        view = ExecutionView(query="min", outcome="result", network=net)
        assert len(BroadcastAuthenticity().check(view)) == len(net.honest_sensors)


class TestBroadcastVerifierFuzz:
    @settings(max_examples=30, deadline=None)
    @given(
        actions=st.lists(
            st.tuples(st.booleans(), st.integers(0, 5), st.booleans()),
            max_size=12,
        )
    )
    def test_only_authentic_payloads_ever_accepted(self, actions):
        """Under arbitrary interleavings of (possibly forged) messages
        and (possibly bogus) disclosures, a verifier only ever accepts
        payloads the authority actually signed for that index."""
        authority = BroadcastAuthority(b"fuzz-seed", chain_length=32)
        verifier = BroadcastVerifier(authority.anchor)
        signed = {}
        pending_disclosures = []
        accepted = []
        for forge, index_hint, do_disclose in actions:
            if not do_disclose:
                if forge:
                    verifier.receive_message(
                        AuthenticatedMessage(
                            index=index_hint + 1,
                            payload=("forged", index_hint),
                            mac=b"\x00" * 8,
                        )
                    )
                else:
                    message = authority.sign("genuine", len(signed))
                    signed[message.index] = message.payload
                    verifier.receive_message(message)
                    pending_disclosures.append(message.index)
            else:
                if forge:
                    result = verifier.receive_disclosure(
                        KeyDisclosure(index=index_hint + 1, chain_key=b"bogus-key-bytes!")
                    )
                    assert result is None
                elif pending_disclosures:
                    index = pending_disclosures.pop(0)
                    result = verifier.receive_disclosure(authority.disclose(index))
                    if result is not None:
                        accepted.append((index, result))
        for index, payload in accepted:
            assert signed[index] == payload
