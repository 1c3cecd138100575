"""Multi-path ring aggregation (Section IV-D).

With multipath on, a sensor keeps *every* same-interval beacon sender as
a parent and sends its bundle to all of them — the synopsis-diffusion
ring structure.  The paper's point: this routes around malicious
parents, so a single dropper on one shortest path no longer suppresses
the minimum, while all audit/pinpointing guarantees carry over.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import (
    CountQuery,
    ExecutionOutcome,
    MinQuery,
    VMATProtocol,
    build_deployment,
    small_test_config,
)
from repro.adversary import Adversary, DropMinimumStrategy
from repro.config import NetworkConfig
from repro.topology import grid_topology

from tests.conftest import assert_only_malicious_revoked


def multipath_config(depth_bound=10):
    return replace(
        small_test_config(depth_bound=depth_bound),
        network=NetworkConfig(multipath=True),
    )


def deploy(malicious=frozenset(), multipath=True, seed=5):
    config = multipath_config() if multipath else small_test_config(depth_bound=10)
    return build_deployment(
        config=config,
        topology=grid_topology(4, 4),
        malicious_ids=malicious,
        seed=seed,
    )


class TestHonestMultipath:
    def test_min_query_exact(self):
        dep = deploy()
        protocol = VMATProtocol(dep.network)
        readings = {i: 40.0 + i for i in dep.topology.sensor_ids}
        readings[15] = 3.0
        result = protocol.execute(MinQuery(), readings)
        assert result.produced_result
        assert result.estimate == 3.0

    def test_interior_nodes_have_multiple_parents(self):
        dep = deploy()
        protocol = VMATProtocol(dep.network)
        readings = {i: 40.0 + i for i in dep.topology.sensor_ids}
        result = protocol.execute(MinQuery(), readings)
        multi = [
            n for n, parents in result.tree.parents.items() if len(parents) > 1
        ]
        assert multi, "4x4 grid must yield multi-parent interior nodes"

    def test_audit_records_one_send_per_parent(self):
        dep = deploy()
        protocol = VMATProtocol(dep.network)
        readings = {i: 40.0 + i for i in dep.topology.sensor_ids}
        result = protocol.execute(MinQuery(), readings)
        sends = dep.network.audit.aggregation_sends
        for node_id, parents in result.tree.parents.items():
            assert len(sends.rows_of(node_id)) == len(parents)

    def test_count_query_multipath(self):
        dep = deploy()
        protocol = VMATProtocol(dep.network)
        readings = {i: float(i % 2) for i in dep.topology.sensor_ids}
        query = CountQuery(predicate=lambda r: r > 0.5, num_synopses=120)
        result = protocol.execute(query, readings)
        truth = query.true_value(list(readings.values()))
        assert result.produced_result
        assert abs(result.estimate - truth) / truth < 0.4


class TestMultipathResilience:
    """The §IV-D motivation: multipath routes around a malicious parent."""

    def test_single_dropper_cannot_suppress_minimum(self):
        # Node 11 is one of two parents of corner 15; with multipath the
        # bundle also flows through 14 and the true minimum arrives.
        single = deploy(malicious={11}, multipath=False, seed=9)
        multi = deploy(malicious={11}, multipath=True, seed=9)
        outcomes = {}
        for label, dep in (("single", single), ("multi", multi)):
            adv = Adversary(dep.network, DropMinimumStrategy(predtest="deny"), seed=9)
            protocol = VMATProtocol(dep.network, adversary=adv)
            readings = {i: 40.0 + i for i in dep.topology.sensor_ids}
            readings[15] = 1.0
            outcomes[label] = protocol.execute(MinQuery(), readings)
        # Multipath: correct result in one shot, nothing to pinpoint.
        assert outcomes["multi"].produced_result
        assert outcomes["multi"].estimate == 1.0

    def test_fenced_corner_still_pinpoints(self):
        """When ALL parents are droppers even multipath cannot deliver —
        but the veto machinery still triggers and revokes."""
        dep = deploy(malicious={11, 14}, multipath=True, seed=9)
        adv = Adversary(dep.network, DropMinimumStrategy(predtest="deny"), seed=9)
        protocol = VMATProtocol(dep.network, adversary=adv)
        readings = {i: 40.0 + i for i in dep.topology.sensor_ids}
        readings[15] = 1.0
        result = protocol.execute(MinQuery(), readings)
        assert result.outcome is ExecutionOutcome.VETO_PINPOINT
        assert result.revocations
        assert_only_malicious_revoked(dep, {11, 14})

    def test_multipath_session_converges(self):
        dep = deploy(malicious={11, 14}, multipath=True, seed=9)
        adv = Adversary(dep.network, DropMinimumStrategy(predtest="deny"), seed=9)
        protocol = VMATProtocol(dep.network, adversary=adv)
        readings = {i: 40.0 + i for i in dep.topology.sensor_ids}
        readings[15] = 1.0
        session = protocol.run_session(MinQuery(), readings, max_executions=200)
        assert session.final_estimate is not None
        assert_only_malicious_revoked(dep, {11, 14})
