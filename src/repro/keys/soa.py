"""Struct-of-arrays key storage: one ring table per deployment.

At 10k nodes the profile of a single execution was dominated not by
crypto but by *containers*: per-sensor index tuples and frozensets
(~108 MiB), per-sensor ``{index: key}`` dicts (~91 MiB), boxed ints from
the ring sampler (~75 MiB) and inverted holder lists (~23 MiB).  This
module replaces all of them with one shared table:

* :class:`RingTable` — every ring as one ``int32`` row of a single
  ``(num_sensors, ring_size)`` array (4 bytes per held key instead of
  ~90).  Eschenauer–Gligor rows are built region-sharded across fork
  workers, each region's rings drawn in one call to
  :func:`repro.crypto.prf.sample_distinct_rows`;
  :meth:`RingTable.from_rows` takes a scheme's explicit rows instead
  (the pairwise scheme, :mod:`repro.keys.schemes`);
* :class:`LazyRingMap` — the public ``registry.rings`` API,
  materializing a per-sensor :class:`~repro.keys.ring.KeyRing` only when
  something asks for one (adversary loot, pinpoint protocols, tests).
  A sensor's key material is its table row plus its sensor key, both
  served by the registry; nothing else is stored per sensor.

:class:`repro.keys.revocation.RevocationState` keeps its counters and
holder index over the same table.  Rows hold exactly the indices
:func:`repro.crypto.prf.sample_distinct_indices` draws (the batch
sampler seeds the same ``random.Random`` per ring and replays ``sample``
over its words bit for bit), and intersections return exactly the
tuples a frozenset intersection would.  Every registry builds on this
table, whatever the key scheme or table size.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import KeyConfig
from ..crypto.prf import sample_distinct_rows
from ..errors import KeyManagementError
from ..perf.shard import fork_map, regions, shard_count
from .pool import KeyPool
from .ring import KeyRing, ring_seed

#: Read-only state handed to edge-key fork workers by copy-on-write
#: inheritance (set immediately before the pool forks, cleared after).
#: Fork workers see the parent's arrays without pickling them.
_EDGE_STATE: "Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]" = None


def _ring_rows_region(args: Tuple[bytes, int, int, int, int]) -> bytes:
    """Rows for sensors ``[start, stop)`` as raw ``int32`` bytes.

    Pure function of the master secret — it derives each ring seed and
    draws the region's rings in one call
    (:func:`repro.crypto.prf.sample_distinct_rows`), whose rows equal
    the per-seed reference sampler's, so the row bytes are identical no
    matter which process computed them.
    """
    master_secret, pool_size, ring_size, start, stop = args
    seeds = [ring_seed(master_secret, sensor_id) for sensor_id in range(start, stop)]
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
        self.num_nodes = num_nodes
        self.pool_size = config.pool_size
        self.ring_size = config.ring_size
        self.rows = self._build_rows(master_secret, num_nodes - 1)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], pool_size: int) -> "RingTable":
        """A table over explicit rings: ``rows[s - 1]`` is sensor ``s``'s.

        Every ring must have the same length and hold distinct indices
        inside the pool; each row is stored sorted.
        """
        try:
            array = np.array(rows, dtype=np.int64)
        except ValueError as exc:
            raise KeyManagementError("explicit rings must all have one length") from exc
        if array.ndim != 2:
            raise KeyManagementError("explicit rings must be a list of rows")
        array.sort(axis=1)
        if array.size and (array[:, 0].min() < 0 or array[:, -1].max() >= pool_size):
            raise KeyManagementError(f"explicit ring index outside pool [0, {pool_size})")
        if (np.diff(array, axis=1) == 0).any():
            raise KeyManagementError("explicit ring holds a pool index twice")
        table = cls.__new__(cls)
        table.num_nodes = array.shape[0] + 1
        table.pool_size = pool_size
        table.ring_size = array.shape[1]
        table.rows = array.astype(np.int32)
        return table

    def _build_rows(self, master_secret: bytes, num_sensors: int) -> np.ndarray:
        if num_sensors <= 0:
            return np.empty((0, self.ring_size), dtype=np.int32)
        # Contiguous id regions, one sampler call each; small tables get
        # one region and run inline.
        shards = shard_count(num_sensors)
        parts = regions(num_sensors, shards)
        chunks = fork_map(
            _ring_rows_region,
            [
                (master_secret, self.pool_size, self.ring_size, start + 1, stop + 1)
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
            seed = ring_seed(self._master_secret, sensor_id)
            ring = KeyRing(sensor_id, seed, self._pool, table=self._table)
            self._rings[sensor_id] = ring
        return ring

    def __contains__(self, sensor_id: object) -> bool:
        return isinstance(sensor_id, int) and 1 <= sensor_id < self._table.num_nodes

    def __len__(self) -> int:
        return max(0, self._table.num_nodes - 1)

    def __iter__(self):
        return iter(range(1, self._table.num_nodes))
