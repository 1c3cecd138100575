"""Adversary machinery: loot boundaries, mimicry parity, strategy hooks."""

from __future__ import annotations

import pytest

from repro import MinQuery, VMATProtocol, build_deployment, small_test_config
from repro.core.protocol import install_execution
from repro.adversary import (
    Adversary,
    ChokingFloodStrategy,
    DropMinimumStrategy,
    PassiveStrategy,
    PolicyStrategy,
    Strategy,
)
from repro.errors import ProtocolError
from repro.topology import grid_topology


@pytest.fixture
def attacked():
    dep = build_deployment(num_nodes=20, seed=31, malicious_ids={3, 8})
    adv = Adversary(dep.network, PassiveStrategy(), seed=31)
    return dep, adv


class TestLootBoundaries:
    def test_loot_is_exactly_compromised_material(self, attacked):
        dep, adv = attacked
        assert set(adv.state) == {3, 8}
        expected = set(dep.registry.ring(3)) | set(dep.registry.ring(8))
        assert dep.network.adversary_pool_indices() == frozenset(expected)

    def test_building_derives_no_keys(self, attacked, monkeypatch):
        from repro.keys import pool, ring

        dep, _ = attacked
        calls = []
        for module in (pool, ring):
            monkeypatch.setattr(module, "derive_key", lambda *a, **k: calls.append(a))
        Adversary(dep.network, PassiveStrategy(), seed=31)
        assert calls == []

    def test_sensor_keys_only_for_compromised(self, attacked):
        dep, adv = attacked
        assert adv.sensor_key(3) == dep.registry.sensor_key(3)
        with pytest.raises(KeyError):
            adv.sensor_key(5)

    def test_signed_reading_verifies_forged_does_not(self, attacked):
        from repro.crypto.mac import verify_mac

        dep, adv = attacked
        nonce = b"n"
        signed = adv.sign_reading(3, 7.0, nonce)
        assert verify_mac(
            dep.registry.sensor_key(3), signed.mac, 3, 0, 7.0, nonce
        )
        forged = adv.forge_reading(5, 7.0)
        assert not verify_mac(dep.registry.sensor_key(5), forged.mac, 5, 0, 7.0, nonce)


class TestMimicryParity:
    """A passive adversary must be behaviourally indistinguishable from
    honest sensors: same result, same vetoes, no revocations."""

    def test_result_identical_with_and_without_compromise(self):
        readings = None
        results = {}
        for malicious in (frozenset(), frozenset({3, 8})):
            dep = build_deployment(num_nodes=20, seed=31, malicious_ids=malicious)
            adv = Adversary(dep.network, PassiveStrategy(), seed=31) if malicious else None
            protocol = VMATProtocol(dep.network, adversary=adv)
            readings = {i: 40.0 + i for i in dep.topology.sensor_ids}
            readings[13] = 3.0
            results[malicious] = protocol.execute(MinQuery(), readings)
        clean, compromised = results.values()
        assert clean.outcome == compromised.outcome
        assert clean.estimate == compromised.estimate == 3.0

    def test_passive_malicious_answers_predicate_tests_truthfully(self):
        dep = build_deployment(
            config=small_test_config(depth_bound=10),
            topology=grid_topology(4, 4),
            malicious_ids={5},
            seed=4,
        )
        adv = Adversary(dep.network, PassiveStrategy(), seed=4)
        protocol = VMATProtocol(dep.network, adversary=adv)
        readings = {i: 40.0 + i for i in dep.topology.sensor_ids}
        protocol.execute(MinQuery(), readings)
        # Passive malicious node kept audit records like an honest one.
        state = adv.state[5]
        assert state.level is not None
        assert dep.network.audit.aggregation_sends.rows_of(5)

    def test_passive_malicious_vetoes_when_its_value_dropped(self):
        """A passive compromised sensor whose value an HONEST protocol
        bug would drop... here: its value is the minimum and propagates,
        so no veto; then we artificially broadcast too-high minima and
        check the mimic vetoes."""
        from repro.core.confirmation import run_confirmation
        from repro.core.tree import form_tree

        dep = build_deployment(num_nodes=15, seed=6, malicious_ids={4})
        adv = Adversary(dep.network, PassiveStrategy(), seed=6)
        adv.begin_execution({4: 1.0}, {4: [1.0]}, {4: [adv.sign_reading(4, 1.0, b"n")]})
        readings = dict.fromkeys(dep.network.honest_sensors, 50.0)
        install_execution(dep.network, readings, MinQuery(), b"n")
        form_tree(dep.network, adv, dep.config.protocol.depth_bound)
        result = run_confirmation(
            dep.network, adv, dep.config.protocol.depth_bound, b"n", [10.0]
        )
        assert result.valid_veto is not None
        assert result.valid_veto[0].sensor_id == 4


class TestPolicyKnob:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ProtocolError):
            PolicyStrategy(predtest="sometimes")

    def test_policies_answer_as_documented(self):
        dep = build_deployment(num_nodes=10, seed=1, malicious_ids={2})
        adv = Adversary(dep.network, PolicyStrategy(), seed=1)
        assert PolicyStrategy("truthful").predtest_answer(adv, None, 2, True) is True
        assert PolicyStrategy("truthful").predtest_answer(adv, None, 2, False) is False
        assert PolicyStrategy("deny").predtest_answer(adv, None, 2, True) is False
        assert PolicyStrategy("lie_yes").predtest_answer(adv, None, 2, False) is True


class TestChokingFlood:
    def test_flood_saturates_capacity_but_vmat_survives(self):
        dep = build_deployment(
            config=small_test_config(depth_bound=10),
            topology=grid_topology(4, 4),
            malicious_ids={5, 6},
            seed=17,
        )
        adv = Adversary(dep.network, ChokingFloodStrategy(), seed=17)
        protocol = VMATProtocol(dep.network, adversary=adv)
        readings = {i: 40.0 + i for i in dep.topology.sensor_ids}
        readings[15] = 1.0
        result = protocol.execute(MinQuery(), readings)
        # Junk vetoes flood the network, but VMAT either pinpoints the
        # junk or the legitimate veto still triggers pinpointing — the
        # attack can never produce a wrong accepted result or a stall.
        assert result.revocations or (
            result.produced_result and result.estimate == 1.0
        )
