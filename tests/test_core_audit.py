"""Well-formed audit trails (Section V): validators + Theorem 2 via
omniscient reconstruction."""

from __future__ import annotations

import pytest

from repro import ExecutionOutcome, MinQuery, VMATProtocol, build_deployment, small_test_config
from repro.adversary import Adversary, DropMinimumStrategy
from repro.core.audit import (
    AuditTuple,
    merge_bottom_segments,
    reconstruct_veto_trail,
    validate_junk_trail,
    validate_veto_trail,
)
from repro.core.confirmation import run_confirmation
from repro.core.node_columns import NO_LEVEL
from repro.core.protocol import install_execution
from repro.errors import AuditTrailError
from repro.topology import grid_topology, line_topology


def normal(position, value, owner, in_edge, out_edge):
    return AuditTuple(position, value, owner, in_edge, out_edge)


def bottom(position, value, in_edge, out_edge=None):
    return AuditTuple(position, value, None, in_edge, out_edge)


class TestVetoTrailValidator:
    def test_figure3_shaped_trail_accepted(self):
        # Mirrors the paper's Figure 3: levels 8,7,4,3,2 with two
        # malicious segments.
        trail = [
            normal(8, 5.0, 11, None, 100),
            normal(7, 5.0, 12, 100, 101),
            bottom(4, 4.0, 101, 102),
            normal(3, 4.0, 13, 102, 103),
            bottom(2, 4.0, 103),
        ]
        validate_veto_trail(trail, depth_bound=10)

    def test_empty_trail_rejected(self):
        with pytest.raises(AuditTrailError):
            validate_veto_trail([], 10)

    def test_trail_must_end_bottom(self):
        trail = [normal(3, 1.0, 5, None, 1)]
        with pytest.raises(AuditTrailError, match="end with"):
            validate_veto_trail(trail, 10)

    def test_adjacent_bottoms_rejected(self):
        trail = [normal(5, 1.0, 3, None, 1), bottom(4, 1.0, 1, 2), bottom(3, 1.0, 2)]
        with pytest.raises(AuditTrailError, match="adjacent"):
            validate_veto_trail(trail, 10)

    def test_levels_must_step_down_by_one(self):
        trail = [normal(5, 1.0, 3, None, 1), normal(3, 1.0, 4, 1, 2), bottom(2, 1.0, 2)]
        with pytest.raises(AuditTrailError, match="predecessor"):
            validate_veto_trail(trail, 10)

    def test_bottom_may_skip_levels(self):
        trail = [normal(9, 1.0, 3, None, 1), bottom(2, 1.0, 1)]
        validate_veto_trail(trail, 10)

    def test_value_may_not_increase(self):
        trail = [normal(5, 1.0, 3, None, 1), normal(4, 2.0, 4, 1, 2), bottom(3, 2.0, 2)]
        with pytest.raises(AuditTrailError, match="value"):
            validate_veto_trail(trail, 10)

    def test_edge_keys_must_chain(self):
        trail = [normal(5, 1.0, 3, None, 1), bottom(4, 1.0, 99)]
        with pytest.raises(AuditTrailError, match="edge-key"):
            validate_veto_trail(trail, 10)

    def test_level_range_enforced(self):
        trail = [normal(15, 1.0, 3, None, 1), bottom(4, 1.0, 1)]
        with pytest.raises(AuditTrailError, match="outside"):
            validate_veto_trail(trail, 10)


class TestJunkTrailValidator:
    def test_ascending_aggregation_trail(self):
        trail = [
            normal(1, 7.0, 4, None, 9),
            normal(2, 7.0, 5, 9, 10),
            bottom(3, 7.0, 10),
        ]
        validate_junk_trail(trail, 10, ascending_levels=True)

    def test_descending_confirmation_trail(self):
        trail = [
            normal(6, 7.0, 4, None, 9),
            normal(5, 7.0, 5, 9, 10),
            bottom(3, 7.0, 10),
        ]
        validate_junk_trail(trail, 10, ascending_levels=False)

    def test_message_must_be_identical(self):
        trail = [normal(1, 7.0, 4, None, 9), bottom(2, 6.0, 9)]
        with pytest.raises(AuditTrailError, match="identical"):
            validate_junk_trail(trail, 10, ascending_levels=True)

    def test_monotonicity_enforced(self):
        trail = [normal(3, 7.0, 4, None, 9), normal(3, 7.0, 5, 9, 10), bottom(1, 7.0, 10)]
        with pytest.raises(AuditTrailError, match="monotonicity"):
            validate_junk_trail(trail, 10, ascending_levels=True)


class TestMergeBottoms:
    def test_merges_contiguous_segments(self):
        trail = [
            normal(5, 1.0, 3, None, 1),
            bottom(4, 1.0, 1, 2),
            bottom(3, 1.0, 2, 3),
            normal(2, 1.0, 4, 3, 5),
            bottom(1, 1.0, 5),
        ]
        merged = merge_bottom_segments(trail)
        assert len(merged) == 4
        assert merged[1].in_edge_index == 1 and merged[1].out_edge_index == 3


class TestTheorem2Reconstruction:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_dropping_attack_leaves_well_formed_trail(self, seed):
        dep = build_deployment(
            config=small_test_config(depth_bound=12),
            topology=line_topology(9),
            malicious_ids={4},
            seed=seed,
        )
        adv = Adversary(dep.network, DropMinimumStrategy(predtest="deny"), seed=seed)
        protocol = VMATProtocol(dep.network, adversary=adv)
        readings = {i: 100.0 + i for i in dep.topology.sensor_ids}
        readings[8] = 1.0

        # Run up to the confirmation, capture the veto, then reconstruct.
        result = protocol.execute(MinQuery(), readings)
        assert result.outcome is ExecutionOutcome.VETO_PINPOINT

        # Re-run the same scenario on a fresh deployment and intercept
        # before pinpointing to get the trail (pinpointing itself does
        # not consume the audit stores, so reconstruct directly):
        veto_sensor = 8
        from repro.net.message import VetoMessage

        level = int(dep.network.node_columns.level[veto_sensor])
        veto = VetoMessage(
            sensor_id=veto_sensor,
            value=1.0,
            level=level if level != NO_LEVEL else 8,
            mac=b"x" * 8,
        )
        trail = reconstruct_veto_trail(dep.network, adv, veto, 12)
        merged = merge_bottom_segments(trail)
        validate_veto_trail(merged, 12, network=dep.network)
        assert merged[-1].is_bottom

    def test_grid_drop_trail(self):
        dep = build_deployment(
            config=small_test_config(depth_bound=10),
            topology=grid_topology(4, 4),
            malicious_ids={11, 14},
            seed=6,
        )
        adv = Adversary(dep.network, DropMinimumStrategy(predtest="deny"), seed=6)
        protocol = VMATProtocol(dep.network, adversary=adv)
        readings = {i: 100.0 + i for i in dep.topology.sensor_ids}
        readings[15] = 1.0
        result = protocol.execute(MinQuery(), readings)
        assert result.outcome is ExecutionOutcome.VETO_PINPOINT
        from repro.net.message import VetoMessage

        level = int(dep.network.node_columns.level[15])
        veto = VetoMessage(sensor_id=15, value=1.0, level=level, mac=b"x" * 8)
        trail = merge_bottom_segments(reconstruct_veto_trail(dep.network, adv, veto, 10))
        validate_veto_trail(trail, 10, network=dep.network)


class TestJunkTrailReconstruction:
    def _spurious_scenario(self, seed):
        from repro.adversary import Adversary, SpuriousVetoStrategy
        from repro.core.audit import reconstruct_junk_conf_trail, validate_junk_trail

        dep = build_deployment(
            config=small_test_config(depth_bound=10),
            topology=grid_topology(4, 4),
            malicious_ids={5},
            seed=seed,
        )
        adv = Adversary(dep.network, SpuriousVetoStrategy(), seed=seed)
        protocol = VMATProtocol(dep.network, adversary=adv)
        readings = {i: 50.0 + i for i in dep.topology.sensor_ids}
        return dep, adv, protocol, readings

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_spurious_veto_leaves_well_formed_junk_trail(self, seed):
        from repro.core.audit import (
            merge_bottom_segments,
            reconstruct_junk_conf_trail,
            validate_junk_trail,
        )
        from repro.core.confirmation import run_confirmation
        from repro.core.tree import form_tree
        from repro.core.aggregation import run_aggregation

        dep, adv, protocol, readings = self._spurious_scenario(seed)
        result = protocol.execute(MinQuery(), readings)
        assert result.outcome is ExecutionOutcome.JUNK_CONFIRMATION_PINPOINT

        # Rebuild the scenario to capture the spurious delivery directly.
        dep, adv, protocol, readings = self._spurious_scenario(seed)
        nonce = protocol.nonces.next()
        dep.network.authenticated_flood("query", "min", 1, nonce)
        own = install_execution(dep.network, readings, MinQuery(), nonce)
        mal = dep.network.malicious_ids
        adv.begin_execution(
            {i: readings[i] for i in mal},
            {i: [readings[i]] for i in mal},
            {i: [] for i in mal},
        )
        form_tree(dep.network, adv, 10)
        agg = run_aggregation(dep.network, adv, 10, nonce, own, 1, lambda i, m: True)
        conf = run_confirmation(dep.network, adv, 10, nonce, agg.minimum_values())
        assert conf.spurious_veto is not None
        veto, delivery, interval = conf.spurious_veto

        trail = reconstruct_junk_conf_trail(
            dep.network, adv, veto, delivery.key_index, interval, 10
        )
        merged = merge_bottom_segments(trail)
        validate_junk_trail(merged, 10, ascending_levels=False, network=dep.network)
        assert merged[-1].is_bottom


class TestJunkAggTrailReconstruction:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_junk_minimum_leaves_ascending_trail(self, seed):
        from repro.adversary import Adversary, JunkMinimumStrategy
        from repro.core.audit import (
            merge_bottom_segments,
            reconstruct_junk_agg_trail,
            validate_junk_trail,
        )
        from repro.core.aggregation import run_aggregation
        from repro.core.tree import form_tree

        dep = build_deployment(
            config=small_test_config(depth_bound=12),
            topology=line_topology(8),
            malicious_ids={3},
            seed=seed,
        )
        adv = Adversary(dep.network, JunkMinimumStrategy(), seed=seed)
        protocol = VMATProtocol(dep.network, adversary=adv)
        nonce = protocol.nonces.next()
        dep.network.authenticated_flood("query", "min", 1, nonce)
        readings = {i: 50.0 + i for i in dep.topology.sensor_ids}
        own = install_execution(dep.network, readings, MinQuery(), nonce)
        mal = dep.network.malicious_ids
        adv.begin_execution(
            {i: readings[i] for i in mal},
            {i: [readings[i]] for i in mal},
            {i: [adv.sign_reading(i, readings[i], nonce)] for i in mal},
        )
        form_tree(dep.network, adv, 12)

        from repro.crypto.mac import verify_mac

        def verify(instance, message):
            return verify_mac(
                dep.registry.sensor_key(message.sensor_id), message.mac,
                message.sensor_id, message.instance, message.value, nonce,
            )

        agg = run_aggregation(dep.network, adv, 12, nonce, own, 1, verify)
        assert agg.junk is not None
        instance, junk_message, delivery = agg.junk

        trail = reconstruct_junk_agg_trail(
            dep.network, adv, junk_message, delivery.key_index, 12
        )
        merged = merge_bottom_segments(trail)
        validate_junk_trail(merged, 12, ascending_levels=True, network=dep.network)
        assert merged[-1].is_bottom
        # Honest forwarders between the base station and the injector
        # appear as normal tuples at levels 1, 2 (nodes 1 and 2 on the line).
        honest_owners = [t.owner for t in merged if not t.is_bottom]
        assert honest_owners == [1, 2]
