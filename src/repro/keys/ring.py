"""Per-sensor key rings (Eschenauer–Gligor pre-distribution [7]).

Each sensor is loaded with ``r`` keys drawn uniformly at random (without
replacement) from the global pool of ``u`` keys.  The draw is determined
by a per-sensor *ring seed* derived from the master secret — the detail
the paper leans on for cheap bulk revocation: "To revoke all of A's edge
keys, the base station only needs to announce the associated random seed
used for the selection" (Section VI-A).

A registry's rings defer to its shared :class:`repro.keys.soa.RingTable`
— one ``int32`` array row per sensor instead of ~3 KB of boxed Python
ints — and answer membership by binary search.  A ring built directly
from a seed, with no table, expands the seed itself and keeps the sorted
index tuple: the row an Eschenauer–Gligor table holds for that seed.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from ..config import KeyConfig
from ..crypto.prf import derive_key, sample_distinct_indices
from ..errors import KeyManagementError
from ..perf.cache import LRUCache
from .pool import KeyPool

#: Ring seeds keyed by ``(master, sensor_id)`` and expanded selections
#: keyed by ``(seed, pool_size, ring_size)``.  Every fresh deployment in
#: a Monte-Carlo sweep re-derives the same rings; the seed is a pure
#: function of its key and the expansion a pure function of (seed,
#: config), so caching is bit-transparent.  Deployments too large to fit
#: (see :func:`ring_caches_fit`) bypass both caches entirely — at 10k+
#: nodes every entry was a one-shot miss (BENCH_scale.json: 12,195
#: misses, 0 hits), pure bookkeeping overhead.
_RING_SEEDS = LRUCache("ring-seeds", maxsize=16384)
_RING_SELECTIONS = LRUCache("ring-selections", maxsize=4096)


def ring_caches_fit(num_sensors: int) -> bool:
    """Whether one deployment's rings fit the seed/selection caches.

    Above this the caches cannot produce hits within a single build (the
    working set exceeds the bound, so entries are evicted before reuse)
    and large builds bypass them instead of thrashing them.
    """
    return num_sensors <= _RING_SELECTIONS.maxsize


def ring_seed(master_secret: bytes, sensor_id: int, cache: bool = True) -> bytes:
    """The announceable seed determining one sensor's ring selection."""
    if not cache:
        return derive_key(master_secret, "ring-seed", sensor_id, length=16)
    key = (master_secret, sensor_id)
    seed = _RING_SEEDS.get(key)
    if seed is None:
        seed = derive_key(master_secret, "ring-seed", sensor_id, length=16)
        _RING_SEEDS.put(key, seed)
    return seed


def ring_indices_from_seed(
    seed: bytes, config: KeyConfig, cache: bool = True
) -> List[int]:
    """Expand a ring seed into the sorted pool indices it selects."""
    if not cache:
        return sample_distinct_indices(seed, config.pool_size, config.ring_size)
    key = (seed, config.pool_size, config.ring_size)
    indices = _RING_SELECTIONS.get(key)
    if indices is None:
        indices = tuple(
            sample_distinct_indices(seed, config.pool_size, config.ring_size)
        )
        _RING_SELECTIONS.put(key, indices)
    return list(indices)


class KeyRing:
    """One sensor's ring: sorted pool indices + the key bytes themselves.

    The sorted order of :attr:`indices` is load-bearing — the binary
    search of Figure 5 runs over "``z_1 < z_2 < ... < z_r``, the index of
    the r edge keys held by sensor A".
    """

    def __init__(
        self,
        sensor_id: int,
        seed: bytes,
        pool: KeyPool,
        table=None,
    ) -> None:
        self.sensor_id = sensor_id
        self.seed = seed
        self._pool = pool
        # ``table`` points this ring at a shared RingTable row instead of
        # materializing per-ring containers; without one, the ring is
        # the seed-derived Eschenauer–Gligor draw.
        self._table = table
        self._indices: Optional[Tuple[int, ...]] = None
        self._index_set: Optional[FrozenSet[int]] = None
        if table is None:
            self._indices = tuple(ring_indices_from_seed(seed, pool.config))
            self._index_set = frozenset(self._indices)

    @property
    def indices(self) -> Tuple[int, ...]:
        if self._indices is None:
            self._indices = tuple(self._table.row_list(self.sensor_id))
        return self._indices

    def __len__(self) -> int:
        if self._table is not None:
            return self._table.ring_size
        return len(self._indices)

    def __contains__(self, pool_index: int) -> bool:
        return self.holds(pool_index)

    def holds(self, pool_index: int) -> bool:
        if self._index_set is not None:
            return pool_index in self._index_set
        return self._table.holds(self.sensor_id, pool_index)

    def key(self, pool_index: int) -> bytes:
        """Key bytes for a pool index this sensor holds."""
        if not self.holds(pool_index):
            raise KeyManagementError(
                f"sensor {self.sensor_id} does not hold pool key {pool_index}"
            )
        return self._pool.pool_key(pool_index)

    def shared_indices(self, other: "KeyRing") -> Tuple[int, ...]:
        """Sorted pool indices present in both rings (candidate edge keys)."""
        if self._table is not None and other._table is self._table:
            return self._table.intersect(self.sensor_id, other.sensor_id)
        if self._index_set is not None and other._index_set is not None:
            return tuple(sorted(self._index_set & other._index_set))
        return tuple(sorted(set(self.indices) & set(other.indices)))

    def rank_of(self, pool_index: int) -> int:
        """Position (0-based) of ``pool_index`` in this ring's sorted order."""
        if not self.holds(pool_index):
            raise KeyManagementError(
                f"sensor {self.sensor_id} does not hold pool key {pool_index}"
            )
        if self._table is not None:
            return self._table.rank_of(self.sensor_id, pool_index)
        return self._indices.index(pool_index)
