"""Alternative key pre-distribution schemes (Section III: "VMAT also
works with other schemes [1]").

The default deployment uses Eschenauer–Gligor random rings.  This module
adds the classic deterministic alternative:

* :class:`PairwiseScheme` — every pair of nodes shares a *dedicated*
  symmetric key (the ``r = n`` extreme the paper mentions: "since
  otherwise it would be better for each sensor to hold a distinct key
  for every other sensor").  Properties that change downstream:

  - every pool key has exactly **two** holders, so the Figure-6 binary
    search degenerates to a couple of tests;
  - an honest sensor shares exactly ``f`` keys with an ``f``-sensor
    adversary (one per compromised neighbour-pair), so any threshold
    ``θ > f`` makes framing *impossible* rather than merely improbable —
    the clean analytic counterpart of Figure 7.

Pool index layout: pairs involving the base station come first
(``index(0, s) = s - 1``) so a sensor's lowest ring index is always its
base-station key and the registry's lowest-shared-key edge-key rule
picks a key the other sensors do not hold.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..config import KeyConfig
from ..errors import KeyManagementError


class PairwiseScheme:
    """Dedicated per-pair keys over ``num_nodes`` nodes (BS included)."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 2:
            raise KeyManagementError("pairwise scheme needs at least two nodes")
        self.num_nodes = num_nodes

    # ------------------------------------------------------------------
    # Index layout
    # ------------------------------------------------------------------
    @property
    def pool_size(self) -> int:
        n = self.num_nodes
        return n * (n - 1) // 2

    def pair_index(self, a: int, b: int) -> int:
        """Canonical pool index for the unordered pair ``{a, b}``."""
        if a == b:
            raise KeyManagementError("no pairwise key for a node with itself")
        a, b = sorted((a, b))
        if not 0 <= a < b < self.num_nodes:
            raise KeyManagementError(f"pair ({a}, {b}) outside the deployment")
        if a == 0:
            return b - 1  # base-station pairs occupy the lowest indices
        # Pairs among sensors 1..n-1, enumerated after the BS block.
        n = self.num_nodes
        offset = n - 1
        # position of (a, b) among sensor pairs with 1 <= a < b <= n-1
        before_a = (a - 1) * (2 * n - a - 2) // 2
        return offset + before_a + (b - a - 1)

    def index_pair(self, index: int) -> Tuple[int, int]:
        """Inverse of :meth:`pair_index`."""
        n = self.num_nodes
        if not 0 <= index < self.pool_size:
            raise KeyManagementError(f"pool index {index} out of range")
        if index < n - 1:
            return (0, index + 1)
        rest = index - (n - 1)
        for a in range(1, n):
            span = n - 1 - a
            if rest < span:
                return (a, a + rest + 1)
            rest -= span
        raise KeyManagementError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def ring_indices(self, sensor_id: int) -> Tuple[int, ...]:
        """All pair keys involving ``sensor_id`` (its ring), sorted."""
        if not 1 <= sensor_id < self.num_nodes:
            raise KeyManagementError(f"sensor id {sensor_id} outside the deployment")
        return tuple(
            sorted(
                self.pair_index(sensor_id, other)
                for other in range(self.num_nodes)
                if other != sensor_id
            )
        )

    def key_config(self, key_length: int = 16) -> KeyConfig:
        """A :class:`KeyConfig` sized for this scheme."""
        return KeyConfig(
            pool_size=self.pool_size,
            ring_size=self.num_nodes - 1,
            key_length=key_length,
        )

    def holders(self, index: int) -> Tuple[int, ...]:
        """The (at most two) sensors holding a pool key; the base
        station (node 0) is implicit and not listed."""
        a, b = self.index_pair(index)
        return tuple(x for x in (a, b) if x != 0)
