"""Pinpointing/revocation (Section VI): Lemmas 4-5, Theorem 6.

The central safety invariant, asserted everywhere: **no honest sensor is
ever revoked, and every revoked key is held by some malicious sensor** —
no matter how the adversary answers predicate tests.
"""

from __future__ import annotations

import pytest

from repro import ExecutionOutcome, MinQuery, VMATProtocol, build_deployment, small_test_config
from repro.adversary import (
    Adversary,
    DropMinimumStrategy,
    HideAndVetoStrategy,
    JunkMinimumStrategy,
    PolicyStrategy,
    SpuriousVetoStrategy,
)
from repro.errors import ProtocolError
from repro.topology import grid_topology, line_topology

from tests.conftest import assert_only_malicious_revoked


def attacked(strategy, malicious, topology=None, depth_bound=12, seed=7, theta=None):
    from dataclasses import replace

    from repro.config import RevocationConfig

    config = small_test_config(depth_bound=depth_bound)
    if theta is not None:
        config = replace(config, revocation=RevocationConfig(theta=theta))
    dep = build_deployment(
        config=config,
        topology=topology if topology is not None else line_topology(10),
        malicious_ids=malicious,
        seed=seed,
    )
    adv = Adversary(dep.network, strategy, seed=seed)
    return dep, adv, VMATProtocol(dep.network, adversary=adv)


def line_readings(dep, minimum_at):
    readings = {i: 100.0 + i for i in dep.topology.sensor_ids}
    readings[minimum_at] = 1.0
    return readings


class TestVetoTriggered:
    @pytest.mark.parametrize("policy", ["truthful", "deny", "lie_yes", "coin"])
    def test_drop_attack_always_costs_the_adversary(self, policy):
        dep, adv, proto = attacked(DropMinimumStrategy(predtest=policy), {4})
        result = proto.execute(MinQuery(), line_readings(dep, 9))
        assert result.outcome is ExecutionOutcome.VETO_PINPOINT
        assert result.revocations, "Theorem 6: at least one revocation"
        assert_only_malicious_revoked(dep, {4})

    def test_truthful_dropper_loses_entire_ring(self):
        dep, adv, proto = attacked(DropMinimumStrategy(predtest="truthful"), {4})
        result = proto.execute(MinQuery(), line_readings(dep, 9))
        assert result.pinpoint.blamed_sensor == 4
        assert 4 in dep.registry.revoked_sensors

    def test_denying_dropper_loses_one_edge_key(self):
        dep, adv, proto = attacked(DropMinimumStrategy(predtest="deny"), {4})
        result = proto.execute(MinQuery(), line_readings(dep, 9))
        assert result.pinpoint.blamed_key is not None
        assert result.pinpoint.blamed_sensor is None
        assert len(result.pinpoint.revoked_key_indices) == 1

    def test_hide_and_veto_pinpointed(self):
        dep, adv, proto = attacked(HideAndVetoStrategy(), {4})
        result = proto.execute(MinQuery(), line_readings(dep, 4))
        assert result.outcome is ExecutionOutcome.VETO_PINPOINT
        assert result.revocations
        assert_only_malicious_revoked(dep, {4})

    def test_walk_length_bounded_by_depth(self):
        dep, adv, proto = attacked(DropMinimumStrategy(predtest="deny"), {4})
        result = proto.execute(MinQuery(), line_readings(dep, 9))
        assert result.pinpoint.steps <= 12 + 1

    def test_theorem6_test_count_is_logarithmic(self):
        """O(L log n) predicate tests per pinpoint run (Theorem 6)."""
        dep, adv, proto = attacked(DropMinimumStrategy(predtest="deny"), {4})
        result = proto.execute(MinQuery(), line_readings(dep, 9))
        import math

        r = dep.config.keys.ring_size
        L = 12
        bound = (result.pinpoint.steps) * (2 * math.ceil(math.log2(r)) + 8) + 8
        assert result.pinpoint.tests_run <= bound


class TestJunkTriggered:
    def test_junk_minimum_traced_through_honest_forwarders(self):
        dep, adv, proto = attacked(JunkMinimumStrategy(), {4})
        readings = {i: 100.0 + i for i in dep.topology.sensor_ids}
        result = proto.execute(MinQuery(), readings)
        assert result.outcome is ExecutionOutcome.JUNK_AGGREGATION_PINPOINT
        assert result.revocations
        assert_only_malicious_revoked(dep, {4})

    def test_junk_minimum_lie_yes_policy(self):
        dep, adv, proto = attacked(JunkMinimumStrategy(predtest="lie_yes"), {4})
        readings = {i: 100.0 + i for i in dep.topology.sensor_ids}
        result = proto.execute(MinQuery(), readings)
        assert result.revocations
        assert_only_malicious_revoked(dep, {4})

    def test_spurious_veto_traced(self):
        dep, adv, proto = attacked(
            SpuriousVetoStrategy(), {5}, topology=grid_topology(4, 4), depth_bound=10
        )
        readings = {i: 100.0 + i for i in dep.topology.sensor_ids}
        readings[15] = 1.0  # honest vetoer exists; junk races it
        result = proto.execute(MinQuery(), readings)
        assert result.outcome in (
            ExecutionOutcome.JUNK_CONFIRMATION_PINPOINT,
            ExecutionOutcome.VETO_PINPOINT,  # legit veto may still win the race
        )
        assert result.revocations
        assert_only_malicious_revoked(dep, {5})

    def test_junk_near_base_station(self):
        # Malicious node adjacent to the BS injects directly.
        dep, adv, proto = attacked(JunkMinimumStrategy(), {1}, topology=line_topology(6), depth_bound=8)
        readings = {i: 100.0 + i for i in dep.topology.sensor_ids}
        result = proto.execute(MinQuery(), readings)
        assert result.outcome is ExecutionOutcome.JUNK_AGGREGATION_PINPOINT
        assert_only_malicious_revoked(dep, {1})


def hub_deployment(num_spokes=12, seed=11):
    """A malicious hub (node 1) between the base station and
    ``num_spokes`` honest leaves.  Attacking through *different* spokes
    spreads the adversary's key exposures across many honest partners —
    the regime in which the θ rule separates attacker from framed
    bystanders (each honest spoke shares only its own few keys with the
    hub, while the hub accumulates every exposure)."""
    from repro.topology import Topology

    edges = [(0, 1)] + [(1, spoke) for spoke in range(2, num_spokes + 2)]
    dep = build_deployment(
        config=small_test_config(depth_bound=4),
        topology=Topology(num_spokes + 2, edges),
        malicious_ids={1},
        seed=seed,
    )
    adv = Adversary(dep.network, DropMinimumStrategy(predtest="deny"), seed=seed)
    proto = VMATProtocol(dep.network, adversary=adv)
    return dep, adv, proto


def framing_safe_theta(dep):
    """One above the largest honest-ring overlap with the adversary's
    loot — the quantity Figure 7 studies, computed exactly here because
    the test is omniscient."""
    loot = dep.network.adversary_pool_indices()
    return 1 + max(
        len(set(dep.registry.ring(h).indices) & loot) for h in dep.network.honest_sensors
    )


class TestThresholdIntegration:
    def _attack_until_quiet(self, dep, proto, max_executions=200):
        """Rotate the minimum across spokes (fresh attack path each
        execution) until executions stop revoking."""
        spokes = [i for i in dep.topology.sensor_ids if i != 1]
        executions = []
        for round_index in range(max_executions):
            target = spokes[round_index % len(spokes)]
            readings = {i: 100.0 + i for i in dep.topology.sensor_ids}
            readings[target] = 1.0
            result = proto.execute(MinQuery(), readings)
            executions.append(result)
            if result.produced_result:
                break
        return executions

    def test_theta_revokes_hub_without_framing(self):
        dep, adv, proto = hub_deployment()
        theta = framing_safe_theta(dep)
        dep.registry.revocation.theta = theta
        self._attack_until_quiet(dep, proto)
        assert 1 in dep.registry.revoked_sensors
        assert_only_malicious_revoked(dep, {1})

    def test_tiny_theta_frames_honest_spokes(self):
        """The left edge of Figure 7: θ far below the ring overlap lets
        the adversary frame honest partners."""
        dep, adv, proto = hub_deployment()
        dep.registry.revocation.theta = 2
        self._attack_until_quiet(dep, proto)
        assert dep.registry.revoked_sensors - {1}, (
            "tiny θ should have framed an honest spoke"
        )

    def test_keys_saved_by_threshold(self):
        """Section I: θ-revocation avoids revoking >90% of ring keys one
        by one (here with the downsized ring, proportionally)."""
        dep, adv, proto = hub_deployment()
        theta = framing_safe_theta(dep)
        dep.registry.revocation.theta = theta
        self._attack_until_quiet(dep, proto)
        assert 1 in dep.registry.revoked_sensors
        individually = sum(
            1 for e in dep.registry.revocation.log
            if e.kind == "key" and not e.reason.startswith("ring of")
        )
        ring_size = dep.config.keys.ring_size
        assert individually < ring_size / 2
        # Sanity: exposures stayed at/near θ, not the whole ring.
        assert individually <= theta + 2


class TestPinpointerSafety:
    @pytest.mark.parametrize("policy", ["truthful", "deny", "lie_yes", "coin"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_honest_collateral_across_policies_and_seeds(self, policy, seed):
        dep, adv, proto = attacked(
            DropMinimumStrategy(predtest=policy),
            {5, 9},
            topology=grid_topology(4, 4),
            depth_bound=10,
            seed=seed,
        )
        readings = {i: 100.0 + i for i in dep.topology.sensor_ids}
        readings[15] = 1.0
        session = proto.run_session(MinQuery(), readings, max_executions=120)
        assert_only_malicious_revoked(dep, {5, 9})
        assert session.final_estimate is not None
