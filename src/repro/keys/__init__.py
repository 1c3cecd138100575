"""Key pre-distribution, registry and revocation (Sections III, VI-C).

* :class:`~repro.keys.pool.KeyPool` — the global pool of ``u`` symmetric
  keys plus per-sensor *sensor keys*, all derived from the base station's
  master secret.
* :class:`~repro.keys.soa.RingTable` — every sensor's ``r`` pool
  indices as one row of a shared table, selected by an announceable
  per-sensor seed (Eschenauer–Gligor [7], :func:`ring_seed`); it answers
  both a sensor's ring and a key's holders.
* :class:`~repro.keys.registry.KeyRegistry` — the base station's view:
  who holds which pool key, which keys/sensors are revoked, and which
  pool key serves as the *edge key* for a given neighbour pair.
* :class:`~repro.keys.revocation.RevocationState` — revocation
  bookkeeping with the θ-threshold whole-sensor rule of Section VI-C.
"""

from .pool import KeyPool
from .registry import KeyRegistry
from .ring import ring_seed
from .revocation import RevocationEvent, RevocationState
from .schemes import PairwiseScheme

__all__ = [
    "KeyPool",
    "KeyRegistry",
    "PairwiseScheme",
    "RevocationEvent",
    "RevocationState",
    "ring_seed",
]
