"""Struct-of-arrays key storage for large deployments.

At 10k nodes the profile of a single execution was dominated not by
crypto but by *containers*: per-sensor index tuples and frozensets
(~108 MiB), per-sensor ``{index: key}`` dicts (~91 MiB), boxed ints from
the ring sampler (~75 MiB) and inverted holder lists (~23 MiB).  This
module replaces all of them with one shared table:

* :class:`RingTable` — every ring as one ``int32`` row of a single
  ``(num_sensors, ring_size)`` array (4 bytes per held key instead of
  ~90), built region-sharded across fork workers, each region's rings
  drawn in one batch by :func:`repro.crypto.prf.sample_distinct_rows`;
* :class:`RingTableRevocationState` — the θ-threshold algorithm of
  :class:`repro.keys.revocation.RevocationState` over ``int32`` counter
  arrays and a lazily-built CSR holder index;
* :class:`LazyRingMap` / :class:`LazySensorKeyMaterial` — the public
  ``registry.rings`` / deployment-material API, materializing per-sensor
  objects only when something actually asks for them (adversary loot,
  pinpoint protocols, tests).

Everything here is a *storage* change, not a semantics change: rows hold
exactly the indices :func:`repro.crypto.prf.sample_distinct_indices`
draws (the batch sampler replays it bit for bit), intersections return
exactly the tuples the frozenset path returns, and the revocation
subclass overrides only the storage hooks of the shared algorithm, so
event logs match entry for entry.  The registry builds on this table
for every Eschenauer–Gligor deployment, caches on or off; the
per-object dict backend serves only schemes that supply explicit rings
(``tests/test_soa.py`` compares the two).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..config import KeyConfig
from ..crypto.prf import derive_key, sample_distinct_rows
from ..errors import KeyManagementError
from ..perf.shard import fork_map, regions, shard_count
from .pool import KeyPool
from .revocation import RevocationState
from .ring import KeyRing, ring_caches_fit, ring_indices_from_seed, ring_seed

#: Read-only state handed to edge-key fork workers by copy-on-write
#: inheritance (set immediately before the pool forks, cleared after).
#: Fork workers see the parent's arrays without pickling them.
_EDGE_STATE: "Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]" = None


def _ring_rows_region(args: Tuple[bytes, int, int, int, int]) -> bytes:
    """Rows for sensors ``[start, stop)`` as raw ``int32`` bytes.

    Pure function of the master secret — it re-derives each ring seed
    directly (no process-global caches, which a fork worker could not
    share back anyway) and draws the region's rings in one batch
    (:func:`repro.crypto.prf.sample_distinct_rows`), whose rows equal
    the per-seed reference sampler's, so the row bytes are identical no
    matter which process computed them.
    """
    master_secret, pool_size, ring_size, start, stop = args
    seeds = [
        derive_key(master_secret, "ring-seed", sensor_id, length=16)
        for sensor_id in range(start, stop)
    ]
    return sample_distinct_rows(seeds, pool_size, ring_size).tobytes()


def _edge_keys_region(args: Tuple[int, int]) -> bytes:
    """Deployment-time edge keys for edge slots ``[start, stop)``.

    Reads ``_EDGE_STATE`` (rows + endpoint arrays) copy-on-write.  The
    edge key at epoch zero is the lowest shared pool index — for a base
    station link, the sensor's lowest ring index — or ``-1`` when the
    endpoints share nothing.
    """
    start, stop = args
    rows, heads, tails = _EDGE_STATE
    out = np.empty(stop - start, dtype=np.int32)
    for offset, slot in enumerate(range(start, stop)):
        a = heads[slot]
        b = tails[slot]
        if a == 0:
            out[offset] = rows[b - 1, 0]
        elif b == 0:
            out[offset] = rows[a - 1, 0]
        else:
            shared = np.intersect1d(rows[a - 1], rows[b - 1], assume_unique=True)
            out[offset] = shared[0] if shared.size else -1
    return out.tobytes()


class RingTable:
    """All ring selections of one deployment as a single ``int32`` array.

    Row ``sensor_id - 1`` holds sensor ``sensor_id``'s sorted pool
    indices (the base station, id 0, holds every key and has no row).
    """

    def __init__(self, master_secret: bytes, num_nodes: int, config: KeyConfig) -> None:
        self.master_secret = master_secret
        self.num_nodes = num_nodes
        self.pool_size = config.pool_size
        self.ring_size = config.ring_size
        self.rows = self._build_rows(num_nodes - 1, config)

    def _build_rows(self, num_sensors: int, config: KeyConfig) -> np.ndarray:
        if num_sensors <= 0:
            return np.empty((0, self.ring_size), dtype=np.int32)
        if ring_caches_fit(num_sensors):
            # Small deployment: go through the seed/selection caches so
            # Monte-Carlo rebuilds of the same master secret still hit.
            out = np.empty((num_sensors, self.ring_size), dtype=np.int32)
            for sensor_id in range(1, num_sensors + 1):
                seed = ring_seed(self.master_secret, sensor_id)
                out[sensor_id - 1] = ring_indices_from_seed(seed, config)
            return out
        # Large deployment: bypass the caches (every lookup would be a
        # one-shot miss) and fan the derivation out over id regions.
        shards = shard_count(num_sensors)
        parts = regions(num_sensors, shards)
        chunks = fork_map(
            _ring_rows_region,
            [
                (self.master_secret, self.pool_size, self.ring_size, start + 1, stop + 1)
                for start, stop in parts
            ],
            shards,
        )
        flat = np.frombuffer(b"".join(chunks), dtype=np.int32)
        return flat.reshape(num_sensors, self.ring_size).copy()

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def _row(self, sensor_id: int) -> np.ndarray:
        if not 1 <= sensor_id < self.num_nodes:
            raise KeyManagementError(f"no ring for node {sensor_id}")
        return self.rows[sensor_id - 1]

    def row_list(self, sensor_id: int) -> List[int]:
        """This sensor's sorted ring indices as Python ints."""
        return self._row(sensor_id).tolist()

    def rows_flat(self) -> np.ndarray:
        return self.rows.ravel()

    def holds(self, sensor_id: int, pool_index: int) -> bool:
        row = self._row(sensor_id)
        position = int(np.searchsorted(row, pool_index))
        return position < self.ring_size and int(row[position]) == pool_index

    def rank_of(self, sensor_id: int, pool_index: int) -> int:
        """Position of ``pool_index`` in the sensor's sorted row; the
        caller is responsible for membership."""
        return int(np.searchsorted(self._row(sensor_id), pool_index))

    def intersect(self, a: int, b: int) -> Tuple[int, ...]:
        """Sorted shared pool indices of two sensors, as Python ints."""
        shared = np.intersect1d(self._row(a), self._row(b), assume_unique=True)
        return tuple(shared.tolist())

    # ------------------------------------------------------------------
    # Bulk edge-key computation (secure-topology build)
    # ------------------------------------------------------------------
    def edge_keys(self, heads: Sequence[int], tails: Sequence[int]) -> np.ndarray:
        """Epoch-zero edge key index per ``(heads[i], tails[i])`` link,
        ``-1`` where the endpoints share no pool key.

        Region-sharded over fork workers; rows and endpoint arrays reach
        the workers copy-on-write, results concatenate in region order.
        Only valid while nothing is revoked (callers with a nonzero
        revocation epoch must use the registry's per-edge path).
        """
        global _EDGE_STATE
        heads_arr = np.ascontiguousarray(heads, dtype=np.int32)
        tails_arr = np.ascontiguousarray(tails, dtype=np.int32)
        count = int(heads_arr.shape[0])
        parts = regions(count, shard_count(count))
        if not parts:
            return np.empty(0, dtype=np.int32)
        _EDGE_STATE = (self.rows, heads_arr, tails_arr)
        try:
            chunks = fork_map(_edge_keys_region, parts, len(parts))
        finally:
            _EDGE_STATE = None
        return np.frombuffer(b"".join(chunks), dtype=np.int32).copy()


class RingTableRevocationState(RevocationState):
    """The θ-threshold algorithm over shared ``int32`` storage.

    Only the storage hooks of :class:`RevocationState` are overridden —
    rings come from the table rows, per-sensor counters live in flat
    arrays, and the inverted holder index is a CSR built lazily on the
    first revocation (honest large-scale runs never pay for it).  Event
    logs are identical to the dict backend's.
    """

    def __init__(
        self, table: RingTable, theta: Optional[int] = None, cascade: bool = False
    ) -> None:
        self._init_scalars(theta, cascade)
        self._table = table
        self._revoked_arr = np.zeros(table.num_nodes, dtype=np.int64)
        self._exposed_arr = np.zeros(table.num_nodes, dtype=np.int64)
        self._csr: "Optional[Tuple[np.ndarray, np.ndarray]]" = None

    def _ensure_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._csr is None:
            flat = self._table.rows_flat()
            order = np.argsort(flat, kind="stable")
            sorted_keys = flat[order]
            # Stable sort keeps equal keys in row order, i.e. ascending
            # sensor ids — the order the dict backend's sorted holder
            # lists expose.
            holders = (order // max(1, self._table.ring_size) + 1).astype(np.int32)
            indptr = np.searchsorted(
                sorted_keys, np.arange(self._table.pool_size + 1)
            )
            self._csr = (indptr, holders)
        return self._csr

    # Storage hooks ----------------------------------------------------
    def _known_sensor(self, sensor_id: int) -> bool:
        return 1 <= sensor_id < self._table.num_nodes

    def _ring_of(self, sensor_id: int) -> Sequence[int]:
        return self._table.row_list(sensor_id)

    def _holder_ids(self, index: int) -> Sequence[int]:
        if not 0 <= index < self._table.pool_size:
            return ()
        indptr, holders = self._ensure_csr()
        lo, hi = int(indptr[index]), int(indptr[index + 1])
        return tuple(holders[lo:hi].tolist())

    def _bump(self, sensors: Iterable[int], exposed: bool) -> None:
        ids = list(sensors)
        if not ids:
            return
        self._revoked_arr[ids] += 1
        if exposed:
            self._exposed_arr[ids] += 1

    def _revoked_count_of(self, sensor_id: int) -> int:
        return int(self._revoked_arr[sensor_id])

    def _exposed_count_of(self, sensor_id: int) -> int:
        return int(self._exposed_arr[sensor_id])

    def _due_sensors(self) -> List[int]:
        # Ascending, matching the dict backend's insertion order for
        # registry-built states; slot 0 (base station) never trips the
        # rule because nothing ever counts against it.
        due = np.nonzero(self._exposed_arr >= self.theta)[0]
        return [int(s) for s in due.tolist() if s not in self._revoked_sensors]


class LazyRingMap(Mapping):
    """``registry.rings`` over a :class:`RingTable`.

    Behaves like the eager ``{sensor_id: KeyRing}`` dict — iteration in
    ascending sensor order, ``in``/``len`` over all deployed sensors —
    but materializes a (table-backed) :class:`KeyRing` only on first
    access.
    """

    def __init__(self, master_secret: bytes, pool: KeyPool, table: RingTable) -> None:
        self._master_secret = master_secret
        self._pool = pool
        self._table = table
        self._rings: Dict[int, KeyRing] = {}

    def __getitem__(self, sensor_id: int) -> KeyRing:
        ring = self._rings.get(sensor_id)
        if ring is None:
            if not (isinstance(sensor_id, int) and 1 <= sensor_id < self._table.num_nodes):
                raise KeyError(sensor_id)
            seed = ring_seed(
                self._master_secret,
                sensor_id,
                cache=ring_caches_fit(self._table.num_nodes - 1),
            )
            ring = KeyRing(sensor_id, seed, self._pool, table=self._table)
            self._rings[sensor_id] = ring
        return ring

    def __contains__(self, sensor_id: object) -> bool:
        return isinstance(sensor_id, int) and 1 <= sensor_id < self._table.num_nodes

    def __len__(self) -> int:
        return max(0, self._table.num_nodes - 1)

    def __iter__(self):
        return iter(range(1, self._table.num_nodes))


class LazySensorKeyMaterial:
    """Deployment material served from the shared table.

    API-compatible with :class:`repro.keys.registry.SensorKeyMaterial`
    but stores nothing per sensor beyond the memoized sensor key: ring
    indices come from the table row and key bytes from the pool PRF on
    demand.  ``all_keys`` still returns the full loot dict (what an
    adversary extracts from a captured node) — built per call.
    """

    __slots__ = ("sensor_id", "_pool", "_table", "_sensor_key")

    def __init__(self, sensor_id: int, pool: KeyPool, table: RingTable) -> None:
        self.sensor_id = sensor_id
        self._pool = pool
        self._table = table
        self._sensor_key: Optional[bytes] = None

    @property
    def sensor_key(self) -> bytes:
        if self._sensor_key is None:
            self._sensor_key = self._pool.sensor_key(self.sensor_id)
        return self._sensor_key

    @property
    def ring_indices(self) -> Tuple[int, ...]:
        return tuple(self._table.row_list(self.sensor_id))

    def holds(self, index: int) -> bool:
        return self._table.holds(self.sensor_id, index)

    def key(self, index: int) -> bytes:
        if not self._table.holds(self.sensor_id, index):
            raise KeyManagementError(
                f"sensor {self.sensor_id} material does not include pool key {index}"
            )
        return self._pool.pool_key(index)

    @property
    def all_keys(self) -> Dict[int, bytes]:
        return {
            index: self._pool.pool_key(index)
            for index in self._table.row_list(self.sensor_id)
        }
