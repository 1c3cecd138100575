"""Key pool, rings, registry: Eschenauer–Gligor pre-distribution."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import KeyConfig, RevocationConfig
from repro.errors import KeyManagementError, RevocationError
from repro.keys import KeyPool, KeyRegistry, KeyRing, ring_seed

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
    def test_ring_selection_from_seed(self, pool):
        ring = KeyRing(1, ring_seed(b"master", 1), pool)
        assert len(ring) == CFG.ring_size
        assert list(ring.indices) == sorted(set(ring.indices))

    def test_same_seed_same_ring(self, pool):
        a = KeyRing(1, ring_seed(b"master", 1), pool)
        b = KeyRing(99, ring_seed(b"master", 1), pool)
        assert a.indices == b.indices

    def test_different_sensors_different_rings(self, pool):
        a = KeyRing(1, ring_seed(b"master", 1), pool)
        b = KeyRing(2, ring_seed(b"master", 2), pool)
        assert a.indices != b.indices

    def test_holds_and_key_access(self, pool):
        ring = KeyRing(1, ring_seed(b"master", 1), pool)
        index = ring.indices[0]
        assert ring.holds(index)
        assert ring.key(index) == pool.pool_key(index)

    def test_key_access_denied_outside_ring(self, pool):
        ring = KeyRing(1, ring_seed(b"master", 1), pool)
        outside = next(i for i in range(CFG.pool_size) if i not in ring)
        with pytest.raises(KeyManagementError):
            ring.key(outside)

    def test_shared_indices_symmetric(self, pool):
        a = KeyRing(1, ring_seed(b"master", 1), pool)
        b = KeyRing(2, ring_seed(b"master", 2), pool)
        assert a.shared_indices(b) == b.shared_indices(a)
        for index in a.shared_indices(b):
            assert index in a and index in b

    def test_rank_of(self, pool):
        ring = KeyRing(1, ring_seed(b"master", 1), pool)
        assert ring.rank_of(ring.indices[5]) == 5


class TestKeyRegistry:
    def test_holders_consistent_with_rings(self, registry):
        for index in registry.ring(1).indices:
            assert 1 in registry.holders(index)

    def test_holders_sorted(self, registry):
        index = registry.ring(1).indices[0]
        holders = registry.holders(index)
        assert list(holders) == sorted(holders)

    def test_node_holds_base_station_holds_all(self, registry):
        assert registry.node_holds(0, 123)

    def test_edge_key_is_lowest_shared(self, registry):
        shared = registry.shared_key_indices(1, 2)
        if shared:
            assert registry.edge_key_index(1, 2) == shared[0]

    def test_edge_key_with_base_station_uses_sensor_ring(self, registry):
        assert registry.edge_key_index(0, 3) == registry.ring(3).indices[0]

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
        material = registry.sensor_deployment_material(4)
        assert material.sensor_key == registry.sensor_key(4)
        assert material.ring_indices == registry.ring(4).indices
        for index in material.ring_indices:
            assert material.key(index) == registry.pool_key(index)

    def test_material_denies_unheld_keys(self, registry):
        material = registry.sensor_deployment_material(4)
        outside = next(i for i in range(CFG.pool_size) if not material.holds(i))
        with pytest.raises(KeyManagementError):
            material.key(outside)

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
