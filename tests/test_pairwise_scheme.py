"""Pairwise key pre-distribution (the "other schemes [1]" of §III)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import ExecutionOutcome, MinQuery, VMATProtocol, build_deployment, small_test_config
from repro.adversary import Adversary, DropMinimumStrategy
from repro.errors import ConfigError, KeyManagementError
from repro.keys.schemes import PairwiseScheme
from repro.topology import grid_topology, line_topology

from tests.conftest import assert_only_malicious_revoked


class TestIndexLayout:
    def test_pool_size(self):
        assert PairwiseScheme(5).pool_size == 10
        assert PairwiseScheme(2).pool_size == 1

    def test_pair_index_bijective(self):
        scheme = PairwiseScheme(9)
        seen = set()
        for a in range(9):
            for b in range(a + 1, 9):
                index = scheme.pair_index(a, b)
                assert scheme.index_pair(index) == (a, b)
                seen.add(index)
        assert seen == set(range(scheme.pool_size))

    def test_pair_index_symmetric(self):
        scheme = PairwiseScheme(6)
        assert scheme.pair_index(2, 5) == scheme.pair_index(5, 2)

    def test_base_station_pairs_lowest(self):
        scheme = PairwiseScheme(7)
        bs_indices = {scheme.pair_index(0, s) for s in range(1, 7)}
        assert bs_indices == set(range(6))
        for sensor in range(1, 7):
            ring = scheme.ring_indices(sensor)
            assert ring[0] == scheme.pair_index(0, sensor)

    def test_ring_size_is_n_minus_1(self):
        scheme = PairwiseScheme(8)
        for sensor in range(1, 8):
            assert len(scheme.ring_indices(sensor)) == 7

    def test_holders_at_most_two(self):
        scheme = PairwiseScheme(8)
        for index in range(scheme.pool_size):
            holders = scheme.holders(index)
            assert 1 <= len(holders) <= 2  # BS pairs list one sensor

    def test_rejects_bad_input(self):
        scheme = PairwiseScheme(5)
        with pytest.raises(KeyManagementError):
            scheme.pair_index(2, 2)
        with pytest.raises(KeyManagementError):
            scheme.pair_index(0, 9)
        with pytest.raises(KeyManagementError):
            scheme.ring_indices(0)
        with pytest.raises(KeyManagementError):
            PairwiseScheme(1)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 30))
    def test_layout_property(self, n):
        scheme = PairwiseScheme(n)
        # Spot-check the inverse on a diagonal stripe of pairs.
        for a in range(0, n - 1, max(1, n // 5)):
            b = a + 1
            assert scheme.index_pair(scheme.pair_index(a, b)) == (a, b)


class TestPairwiseDeployment:
    def test_every_link_has_a_dedicated_key(self):
        dep = build_deployment(
            num_nodes=12, seed=4, key_scheme="pairwise",
            topology=grid_topology(3, 4),
        )
        scheme = PairwiseScheme(12)
        for a, b in dep.topology.edges():
            assert dep.registry.edge_key_index(a, b) == scheme.pair_index(a, b)

    def test_registry_holders_match_scheme(self):
        dep = build_deployment(num_nodes=10, seed=4, key_scheme="pairwise")
        scheme = PairwiseScheme(10)
        for index in range(scheme.pool_size):
            assert dep.registry.holders(index) == scheme.holders(index)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            build_deployment(num_nodes=10, key_scheme="quantum")

    def test_honest_min_query(self):
        dep = build_deployment(num_nodes=15, seed=4, key_scheme="pairwise")
        protocol = VMATProtocol(dep.network)
        readings = {i: 40.0 + i for i in dep.topology.sensor_ids}
        readings[9] = 2.0
        result = protocol.execute(MinQuery(), readings)
        assert result.produced_result
        assert result.estimate == 2.0


class TestPairwisePinpointing:
    def _attacked(self, predtest="deny"):
        dep = build_deployment(
            config=small_test_config(depth_bound=12),
            topology=line_topology(8),
            malicious_ids={3},
            seed=4,
            key_scheme="pairwise",
        )
        adv = Adversary(dep.network, DropMinimumStrategy(predtest=predtest), seed=4)
        protocol = VMATProtocol(dep.network, adversary=adv)
        readings = {i: 40.0 + i for i in dep.topology.sensor_ids}
        readings[7] = 1.0
        return dep, protocol, readings

    def test_dropper_pinpointed_with_exact_link_key(self):
        dep, protocol, readings = self._attacked()
        result = protocol.execute(MinQuery(), readings)
        assert result.outcome is ExecutionOutcome.VETO_PINPOINT
        scheme = PairwiseScheme(8)
        # The revoked key is precisely the link key of the dropped hop.
        assert result.pinpoint.blamed_key == scheme.pair_index(3, 4)
        assert_only_malicious_revoked(dep, {3})

    def test_fewer_tests_than_random_rings(self):
        """Holders of any pairwise key number at most two, so Figure 6's
        binary search is nearly constant-time."""
        dep, protocol, readings = self._attacked()
        result = protocol.execute(MinQuery(), readings)
        # Trail of ~4 steps, each step ~ log2(7)+1 ring tests + <=4
        # holder tests.
        assert result.pinpoint.tests_run <= result.pinpoint.steps * 9 + 4

    def test_framing_impossible_with_theta_above_f(self):
        """The analytic Figure-7 counterpart: an honest sensor shares
        exactly f pairwise keys with an f-sensor adversary, so θ = f + 1
        guarantees zero mis-revocation, ever."""
        dep, protocol, readings = self._attacked()
        dep.registry.revocation.theta = 2  # f = 1, so θ = 2 is safe
        for _ in range(30):
            result = protocol.execute(MinQuery(), readings)
            if result.produced_result:
                break
        assert_only_malicious_revoked(dep, {3})
