"""Per-sensor ring selection (Eschenauer–Gligor pre-distribution [7]).

Each sensor is loaded with ``r`` keys drawn uniformly at random (without
replacement) from the global pool of ``u`` keys.  The draw is determined
by a per-sensor *ring seed* derived from the master secret — the detail
the paper leans on for cheap bulk revocation: "To revoke all of A's edge
keys, the base station only needs to announce the associated random seed
used for the selection" (Section VI-A).

The rings themselves live in one place, the deployment's
:class:`repro.keys.soa.RingTable`: row ``s - 1`` is sensor ``s``'s
sorted selection.  This module holds only the seed and its per-seed
expansion, the reference the table's batch sampler reproduces row for
row.
"""

from __future__ import annotations

from typing import List

from ..config import KeyConfig
from ..crypto.prf import derive_key, sample_distinct_indices


def ring_seed(master_secret: bytes, sensor_id: int) -> bytes:
    """The announceable seed determining one sensor's ring selection."""
    return derive_key(master_secret, "ring-seed", sensor_id, length=16)


def ring_indices_from_seed(seed: bytes, config: KeyConfig) -> List[int]:
    """Expand a ring seed into the sorted pool indices it selects."""
    return sample_distinct_indices(seed, config.pool_size, config.ring_size)
