"""Key pool, rings, registry: Eschenauer–Gligor pre-distribution."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import KeyConfig, RevocationConfig
from repro.core.predicate_test import node_key
from repro.errors import KeyManagementError, ProtocolError, RevocationError
from repro.keys import KeyPool, KeyRegistry, ring_seed
from repro.keys.ring import ring_indices_from_seed

CFG = KeyConfig(pool_size=200, ring_size=40)


@pytest.fixture
def pool():
    return KeyPool(b"master", CFG)


@pytest.fixture
def registry():
    return KeyRegistry(b"master", num_nodes=12, key_config=CFG,
                       revocation_config=RevocationConfig(theta=5))


class TestKeyPool:
    def test_pool_keys_deterministic_and_distinct(self, pool):
        assert pool.pool_key(3) == pool.pool_key(3)
        assert pool.pool_key(3) != pool.pool_key(4)

    def test_sensor_keys_distinct_from_pool_keys(self, pool):
        assert pool.sensor_key(3) != pool.pool_key(3)

    def test_key_length(self, pool):
        assert len(pool.pool_key(0)) == CFG.key_length

    def test_rejects_out_of_range_index(self, pool):
        with pytest.raises(KeyManagementError):
            pool.pool_key(CFG.pool_size)
        with pytest.raises(KeyManagementError):
            pool.pool_key(-1)

    def test_rejects_empty_master(self):
        with pytest.raises(KeyManagementError):
            KeyPool(b"", CFG)


class TestKeyRing:
    def test_ring_selection_from_seed(self):
        ring = ring_indices_from_seed(ring_seed(b"master", 1), CFG)
        assert len(ring) == CFG.ring_size
        assert list(ring) == sorted(set(ring))

    def test_same_seed_same_ring(self):
        seed = ring_seed(b"master", 1)
        assert ring_indices_from_seed(seed, CFG) == ring_indices_from_seed(seed, CFG)

    def test_different_sensors_different_rings(self):
        a = ring_indices_from_seed(ring_seed(b"master", 1), CFG)
        b = ring_indices_from_seed(ring_seed(b"master", 2), CFG)
        assert a != b

    def test_holds_and_key_access(self, registry, pool):
        index = registry.ring(1)[0]
        assert registry.node_holds(1, index)
        assert registry.pool_key(index) == pool.pool_key(index)

    def test_key_access_denied_outside_ring(self):
        # An honest sensor replies to a keyed predicate test only under a
        # key it holds; asking it for any other is a protocol bug.
        from repro import build_deployment

        network = build_deployment(num_nodes=8, seed=2).network
        ring = network.registry.ring(4)
        assert node_key(network, ("pool", ring[0]), 4) == network.registry.pool_key(ring[0])
        outside = next(i for i in range(network.config.keys.pool_size) if i not in ring)
        with pytest.raises(ProtocolError):
            node_key(network, ("pool", outside), 4)
        with pytest.raises(ProtocolError):
            node_key(network, ("sensor", 5), 4)

    def test_shared_indices_symmetric(self, registry):
        shared = registry.shared_key_indices(1, 2)
        assert shared == registry.shared_key_indices(2, 1)
        for index in shared:
            assert index in registry.ring(1) and index in registry.ring(2)


class TestKeyRegistry:
    def test_holders_consistent_with_rings(self, registry):
        for index in registry.ring(1):
            assert 1 in registry.holders(index)

    def test_holders_sorted(self, registry):
        index = registry.ring(1)[0]
        holders = registry.holders(index)
        assert list(holders) == sorted(holders)

    def test_node_holds_base_station_holds_all(self, registry):
        assert registry.node_holds(0, 123)

    def test_edge_key_is_lowest_shared(self, registry):
        shared = registry.shared_key_indices(1, 2)
        if shared:
            assert registry.edge_key_index(1, 2) == shared[0]

    def test_edge_key_with_base_station_uses_sensor_ring(self, registry):
        assert registry.edge_key_index(0, 3) == registry.ring(3)[0]

    def test_edge_key_skips_revoked(self, registry):
        shared = registry.shared_key_indices(1, 2)
        assert len(shared) >= 2, "test config should give many shared keys"
        registry.revoke_key(shared[0])
        assert registry.edge_key_index(1, 2) == shared[1]

    def test_link_unusable_when_endpoint_revoked(self, registry):
        assert registry.link_usable(1, 2)
        registry.revoke_sensor(2)
        assert not registry.link_usable(1, 2)

    def test_link_unusable_when_all_shared_keys_revoked(self, registry):
        registry.revocation.theta = None  # bypass θ noise
        for index in registry.shared_key_indices(0, 1):
            registry.revoke_key(index)
        assert registry.edge_key_index(0, 1) is None
        assert not registry.link_usable(0, 1)

    def test_revoke_key_outside_pool_rejected(self, registry):
        for index in (-1, CFG.pool_size, 10**9):
            with pytest.raises(RevocationError):
                registry.revoke_key(index)
            assert registry.holders(index) == ()
        assert registry.revocation_epoch == 0
        assert registry.revoked_keys == frozenset()

    def test_no_edge_key_with_self(self, registry):
        with pytest.raises(KeyManagementError):
            registry.edge_key_index(3, 3)

    def test_deployment_material_matches_registry(self, registry):
        ring = registry.ring(4)
        assert registry.sensor_key(4) == registry.pool.sensor_key(4)
        assert ring == tuple(registry.ring_table.row_list(4))
        assert all(registry.node_holds(4, index) for index in ring)

    def test_material_denies_unheld_keys(self, registry):
        ring = registry.ring(4)
        outside = [i for i in range(CFG.pool_size) if i not in ring]
        assert len(outside) == CFG.pool_size - CFG.ring_size
        assert not any(registry.node_holds(4, i) for i in outside)
        with pytest.raises(KeyManagementError):
            registry.ring(12)

    def test_rejects_tiny_deployment(self):
        with pytest.raises(KeyManagementError):
            KeyRegistry(b"m", num_nodes=1, key_config=CFG)

    @settings(max_examples=15, deadline=None)
    @given(a=st.integers(1, 11), b=st.integers(1, 11))
    def test_edge_key_symmetric(self, a, b):
        # Fresh, unmutated registry (module-level cache) — hypothesis
        # forbids function-scoped fixtures.
        registry = _symmetry_registry()
        if a != b:
            assert registry.edge_key_index(a, b) == registry.edge_key_index(b, a)


_SYMMETRY_REGISTRY = None


def _symmetry_registry():
    global _SYMMETRY_REGISTRY
    if _SYMMETRY_REGISTRY is None:
        _SYMMETRY_REGISTRY = KeyRegistry(b"master", num_nodes=12, key_config=CFG)
    return _SYMMETRY_REGISTRY
