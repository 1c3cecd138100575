"""Keyed predicate test (Section VI-A): Theorem 3 semantics under
honest and adversarial behaviour."""

from __future__ import annotations

import pytest

from repro import MinQuery, build_deployment, small_test_config
from repro.adversary import Adversary, PolicyStrategy
from repro.adversary.strategies import PassiveStrategy
from repro.core.predicate_test import (
    AggForwarded,
    AggReceived,
    AggReceivedExact,
    AggSentExact,
    ConfReceivedExact,
    ConfSentExact,
    decode_predicate,
    run_keyed_predicate_test,
)
from repro.core.tree import form_tree
from repro.core.aggregation import run_aggregation
from repro.core.protocol import install_execution
from repro.crypto.encoding import encode_parts
from repro.crypto.mac import compute_mac
from repro.errors import ProtocolError
from repro.net.message import ReadingMessage
from repro.topology import grid_topology, line_topology

NONCE = b"predtest-nonce"


def run_min_aggregation(deployment, adversary, readings, depth_bound):
    own = install_execution(deployment.network, readings, MinQuery(), NONCE)
    if adversary is not None:
        mal = deployment.network.malicious_ids
        adversary.begin_execution(
            {i: readings[i] for i in mal},
            {i: [readings[i]] for i in mal},
            {
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
            },
        )
    form_tree(deployment.network, adversary, depth_bound)
    run_aggregation(
        deployment.network, adversary, depth_bound, NONCE, own, 1, lambda i, m: True
    )


@pytest.fixture
def aggregated_line(line_deployment):
    readings = {i: 100.0 + i for i in line_deployment.topology.sensor_ids}
    readings[9] = 1.0
    run_min_aggregation(line_deployment, None, readings, 12)
    return line_deployment


class TestTheorem3HonestSide:
    def test_satisfying_honest_holder_guarantees_success(self, aggregated_line):
        # Node 9 (level 9) forwarded value 1.0; ask exactly that.
        ring = aggregated_line.registry.ring(9)
        predicate = AggForwarded(
            level=9, value_bound=1.0, key_low=ring[0], key_high=ring[-1]
        )
        nonce = b"n1"
        assert run_keyed_predicate_test(
            aggregated_line.network, None, ("sensor", 9), predicate, nonce, 12
        )

    def test_unsatisfied_predicate_fails(self, aggregated_line):
        predicate = AggForwarded(level=9, value_bound=0.5, key_low=0, key_high=10**6)
        assert not run_keyed_predicate_test(
            aggregated_line.network, None, ("sensor", 9), predicate, b"n2", 12
        )

    def test_edge_key_test_finds_receiver(self, aggregated_line):
        net = aggregated_line.network
        key_index = aggregated_line.registry.edge_key_index(9, 8)
        predicate = AggReceived(
            id_low=8, id_high=8, value_bound=1.0, child_level=9, key_index=key_index
        )
        assert run_keyed_predicate_test(
            net, None, ("pool", key_index), predicate, b"n3", 12
        )

    def test_edge_key_test_respects_id_window(self, aggregated_line):
        key_index = aggregated_line.registry.edge_key_index(9, 8)
        predicate = AggReceived(
            id_low=1, id_high=7, value_bound=1.0, child_level=9, key_index=key_index
        )
        # Node 8 is outside the id window, so nobody satisfies.
        assert not run_keyed_predicate_test(
            aggregated_line.network, None, ("pool", key_index), predicate, b"n4", 12
        )

    def test_costs_two_flooding_rounds(self, aggregated_line):
        net = aggregated_line.network
        before = net.metrics.flooding_rounds
        run_keyed_predicate_test(
            net, None, ("sensor", 9),
            AggForwarded(level=9, value_bound=1.0, key_low=0, key_high=10**6),
            b"n5", 12,
        )
        assert net.metrics.flooding_rounds == before + 2.0


class TestTheorem3AdversarialSide:
    def _attacked(self, strategy, malicious={4}):
        dep = build_deployment(
            config=small_test_config(depth_bound=10),
            topology=grid_topology(4, 4),
            malicious_ids=malicious,
            seed=9,
        )
        adv = Adversary(dep.network, strategy, seed=9)
        readings = {i: 50.0 + i for i in dep.topology.sensor_ids}
        run_min_aggregation(dep, adv, readings, 10)
        return dep, adv

    def test_malicious_holder_can_lie_yes(self):
        dep, adv = self._attacked(PolicyStrategy(predtest="lie_yes"))
        key_index = dep.registry.ring(4)[0]
        # Predicate nobody honestly satisfies (absurd bound).
        predicate = AggReceived(
            id_low=1, id_high=15, value_bound=-1e18, child_level=3, key_index=key_index
        )
        assert run_keyed_predicate_test(
            dep.network, adv, ("pool", key_index), predicate, b"n6", 10
        )

    def test_nonholder_cannot_fake_success(self):
        dep, adv = self._attacked(PolicyStrategy(predtest="lie_yes"))
        # A pool key held by NO malicious sensor.
        outside = next(
            i
            for i in range(dep.config.keys.pool_size)
            if i not in dep.network.adversary_pool_indices()
        )
        predicate = AggReceived(
            id_low=1, id_high=15, value_bound=-1e18, child_level=3, key_index=outside
        )
        assert not run_keyed_predicate_test(
            dep.network, adv, ("pool", outside), predicate, b"n7", 10
        )

    def test_denying_adversary_cannot_block_honest_reply(self):
        """The flooding half of Theorem 3: honest success is guaranteed
        even when malicious relays refuse to forward."""
        dep, adv = self._attacked(PolicyStrategy(predtest="deny"), malicious={5, 6})
        # Honest node 15 (far corner) forwarded its own reading.
        sends = dep.network.audit.aggregation_sends
        row = sends.rows_of(15)[0]
        predicate = AggForwarded(
            level=sends.position[row],
            value_bound=sends.message[row].value,
            key_low=0,
            key_high=10**6,
        )
        assert run_keyed_predicate_test(
            dep.network, adv, ("sensor", 15), predicate, b"n8", 10
        )

    def test_spurious_replies_die_at_first_honest_relay(self):
        dep, adv = self._attacked(PassiveStrategy())
        net = dep.network
        key_index = dep.registry.ring(4)[0]
        predicate = AggReceived(
            id_low=1, id_high=15, value_bound=-1e18, child_level=3, key_index=key_index
        )
        # Passive strategy answers truthfully (false) -> no reply at all;
        # in particular junk never propagates to a success.
        assert not run_keyed_predicate_test(
            net, adv, ("pool", key_index), predicate, b"n9", 10
        )


class TestDecodePredicateFieldTypes:
    """``decode_predicate`` type-checks every field of every predicate
    type, so an ill-typed challenge fails on arrival, not at evaluation."""

    WELL_TYPED = [
        AggForwarded(3, 40.0, 2, 9, 1),
        AggForwarded(3, 40, 2, 9, 1),  # an int bound is a valid float field
        AggReceived(1, 20, 40.0, 2, 5, 0),
        AggSentExact(1, 20, b"d" * 8, 3, 5),
        AggReceivedExact(b"d" * 8, 4, 2, 9),
        ConfSentExact(1, 20, b"d" * 8, 4, 5),
        ConfReceivedExact(b"d" * 8, 4, 2, 9),
    ]

    #: (tag, fields) with one ill-typed field each.
    ILL_TYPED = [
        ("agg-forwarded", ("x", 2.0, 3, 4, 0)),
        ("agg-forwarded", (3, "40", 2, 9, 1)),
        ("agg-forwarded", (3, 40.0, 2, 9, True)),
        ("agg-received", (1, 20, b"40", 2, 5, 0)),
        ("agg-received", (1.0, 20, 40.0, 2, 5, 0)),
        ("agg-sent-exact", (1, 20, "digest", 3, 5)),
        ("agg-sent-exact", (1, 20, b"d", 3, None)),
        ("agg-received-exact", (b"d", 4.5, 2, 9)),
        ("conf-sent-exact", (1, 20, b"d", 4, (5,))),
        ("conf-received-exact", (7, 4, 2, 9)),
        ("conf-received-exact", (b"d", 4, False, 9)),
    ]

    @pytest.mark.parametrize("predicate", WELL_TYPED, ids=repr)
    def test_well_typed_predicates_round_trip(self, predicate):
        assert decode_predicate(predicate.encode()) == predicate

    @pytest.mark.parametrize("tag, fields", ILL_TYPED)
    def test_ill_typed_field_raises_protocol_error(self, tag, fields):
        with pytest.raises(ProtocolError, match="must be"):
            decode_predicate(encode_parts(tag, *fields))

    def test_every_predicate_type_has_an_ill_typed_case(self):
        from repro.core.predicate_test import _PREDICATE_TAGS

        assert {tag for tag, _ in self.ILL_TYPED} == set(_PREDICATE_TAGS)

    def test_every_declared_field_type_is_checked(self):
        """The check keys on resolved field classes, not annotation
        strings, and every field's class admits some decoded value."""
        import dataclasses
        import typing

        from repro.core.predicate_test import _FIELD_TYPES, _PREDICATE_TAGS

        for predicate_type in _PREDICATE_TAGS.values():
            hints = typing.get_type_hints(predicate_type)
            for field in dataclasses.fields(predicate_type):
                assert hints[field.name] in _FIELD_TYPES, (predicate_type, field.name)

    @pytest.mark.parametrize(
        "data",
        [
            encode_parts("agg-forwarded", 3, 40.0, 2, 9),
            encode_parts("no-such-predicate", 1),
            encode_parts(7, 1, 2),
        ],
        ids=["short", "unknown-tag", "untagged"],
    )
    def test_malformed_shapes_raise_protocol_error(self, data):
        with pytest.raises(ProtocolError):
            decode_predicate(data)
