"""The base station's key registry.

The base station owns the master secret, so it knows every pool key,
every sensor key, and the exact set of sensors holding any pool key —
the knowledge Figures 5 and 6 rely on ("the base station knows the exact
set of the t sensors holding K_e").  The registry also owns revocation
state and answers the central link question: *which pool key currently
serves as the edge key between two nodes?*

Edge-key convention: the lowest-indexed shared, non-revoked pool key.
Both endpoints can compute it locally (they know their own rings and the
public revocation announcements), so no negotiation message is needed.
The base station itself holds every key, so for a link incident to the
base station the candidates are simply the sensor's ring.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import KeyConfig, RevocationConfig
from ..errors import KeyManagementError
from .pool import KeyPool
from .revocation import RevocationEvent, RevocationState
from .ring import KeyRing
from .soa import LazyRingMap, RingTable

BASE_STATION_ID = 0


class KeyRegistry:
    """Deployment-wide key knowledge plus revocation state."""

    def __init__(
        self,
        master_secret: bytes,
        num_nodes: int,
        key_config: KeyConfig,
        revocation_config: Optional[RevocationConfig] = None,
        cascade: bool = False,
        ring_indices_factory=None,
    ) -> None:
        """``ring_indices_factory(sensor_id) -> sequence of pool indices``
        overrides the Eschenauer–Gligor seed-derived ring selection; used
        by deterministic schemes (:mod:`repro.keys.schemes`)."""
        if num_nodes < 2:
            raise KeyManagementError("need the base station plus at least one sensor")
        self.pool = KeyPool(master_secret, key_config)
        self.num_nodes = num_nodes
        theta = revocation_config.theta if revocation_config is not None else None
        # One shared int32 ring table (repro.keys.soa) backs every
        # scheme: the default Eschenauer–Gligor draw, or a scheme's
        # explicit rings.  Per-sensor objects materialize lazily and
        # revocation counters are flat arrays.
        if ring_indices_factory is None:
            self.ring_table = RingTable(master_secret, num_nodes, key_config)
        else:
            self.ring_table = RingTable.from_rows(
                [ring_indices_factory(sensor_id) for sensor_id in range(1, num_nodes)],
                key_config.pool_size,
            )
        self.rings: Dict[int, KeyRing] = LazyRingMap(master_secret, self.pool, self.ring_table)
        self.revocation = RevocationState(self.ring_table, theta=theta, cascade=cascade)
        # Rings are immutable for the deployment's lifetime, so the set
        # intersection behind shared_key_indices is a pure per-edge
        # constant, memoized per registry instance.
        self._shared_indices_memo: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    @property
    def revocation_epoch(self) -> int:
        """Length of the append-only revocation log.

        Every revocation action (including the ring-dump key events of a
        sensor revocation) appends exactly one entry, so this counter is
        a version number for the secure topology: consumers that cached
        link state at epoch ``e`` need only apply ``log[e:]`` to catch
        up (see the incremental view in :mod:`repro.net.network`).
        """
        return len(self.revocation.log)

    # ------------------------------------------------------------------
    # Key lookups
    # ------------------------------------------------------------------
    def ring(self, sensor_id: int) -> KeyRing:
        if sensor_id not in self.rings:
            raise KeyManagementError(f"no ring for node {sensor_id}")
        return self.rings[sensor_id]

    def sensor_key(self, sensor_id: int, store: bool = True) -> bytes:
        return self.pool.sensor_key(sensor_id, store=store)

    def pool_key(self, index: int) -> bytes:
        return self.pool.pool_key(index)

    def holders(self, index: int) -> Tuple[int, ...]:
        """Sorted sensor ids whose ring contains pool key ``index``.

        The base station is not listed: it holds every key implicitly.
        """
        return self.revocation.holders_of(index)

    def node_holds(self, node_id: int, index: int) -> bool:
        """Whether ``node_id`` holds pool key ``index`` (BS holds all)."""
        if node_id == BASE_STATION_ID:
            return True
        return self.ring_table.holds(node_id, index)

    # ------------------------------------------------------------------
    # Edge keys
    # ------------------------------------------------------------------
    def shared_key_indices(self, a: int, b: int) -> Tuple[int, ...]:
        """All pool indices both endpoints hold, sorted (ignores revocation)."""
        if a == b:
            raise KeyManagementError("no edge key between a node and itself")
        if a == BASE_STATION_ID:
            return self.ring(b).indices
        if b == BASE_STATION_ID:
            return self.ring(a).indices
        edge = (a, b) if a < b else (b, a)
        shared = self._shared_indices_memo.get(edge)
        if shared is None:
            shared = self._shared_indices_memo[edge] = self.ring_table.intersect(a, b)
        return shared

    def edge_key_index(self, a: int, b: int) -> Optional[int]:
        """The current edge key for link ``(a, b)``.

        Lowest shared non-revoked pool index, or ``None`` when every
        shared key is revoked (or none was ever shared) — in that case
        the link is unusable and drops out of the secure topology.
        """
        for index in self.shared_key_indices(a, b):
            if not self.revocation.is_key_revoked(index):
                return index
        return None

    def edge_key(self, a: int, b: int) -> Optional[bytes]:
        index = self.edge_key_index(a, b)
        return None if index is None else self.pool.pool_key(index)

    def link_usable(self, a: int, b: int) -> bool:
        """A link is usable when both endpoints are unrevoked and they
        still share a non-revoked key."""
        for node in (a, b):
            if node != BASE_STATION_ID and self.revocation.is_sensor_revoked(node):
                return False
        return self.edge_key_index(a, b) is not None

    # ------------------------------------------------------------------
    # Revocation pass-throughs
    # ------------------------------------------------------------------
    def revoke_key(self, index: int, reason: str = "pinpointed") -> List[RevocationEvent]:
        return self.revocation.revoke_key(index, reason=reason)

    def revoke_sensor(self, sensor_id: int, reason: str = "pinpointed") -> List[RevocationEvent]:
        return self.revocation.revoke_sensor(sensor_id, reason=reason)

    @property
    def revoked_keys(self) -> frozenset[int]:
        return self.revocation.revoked_keys

    @property
    def revoked_sensors(self) -> frozenset[int]:
        return self.revocation.revoked_sensors
