"""Parallel per-node state columns behind the column kernel's node views.

At 1M nodes the per-node scalar state — reading, tree level, the two
one-time forward flags, the crash-suspected flag, the last verified
broadcast index — costs far more as Python attributes (a boxed float,
a boxed int-or-None, three bools and a verifier object per instance)
than as six flat arrays keyed by node id.  This module
holds exactly those six scalars as columns sized by the topology's
contiguous id space (ids are ``range(num_nodes)``; row 0, the base
station, is simply unused):

* ``reading`` — ``float64`` (readings are floats everywhere; the
  protocol driver coerces with ``float()`` before installing them);
* ``level`` — ``int32``, with ``None`` as the ``_NO_LEVEL`` sentinel.
  A node's level is only ever ``None`` or a valid level in
  ``[1, depth_bound]``: :meth:`~repro.core.tree.TreeColumns.install`
  writes nothing else, and the hop-count baseline's raw (possibly
  forged, any-size) claims stay in the tree step's own columns;
* ``forwarded_veto`` / ``forwarded_beacon`` / ``crash_suspected`` —
  boolean columns;
* ``broadcast_index`` — ``int64``, the μTESLA chain index the sensor
  last verified (0 = only the deployed anchor).  This is a sensor's
  whole authenticated-broadcast state: the chain value at that index
  is kept once by the network, whose floods advance the column
  (:meth:`~repro.net.network.Network.authenticated_flood`).

:class:`~repro.net.node.HonestNode` exposes each column cell through
properties with plain Python types (``float``/``int``/``bool``/
``None``), so every phase loop, adversary hook, fault injector and
service host reads and writes node state as attributes — the node
objects are thin property wrappers over these arrays, not copies.
Containers that are per-node but not scalar (``parents``,
``query_values``, the audit trail) stay object slots on the nodes; the
tree phase arenas ``parents`` during its hot loop
(:class:`~repro.core.tree.TreeColumns`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: ``level`` cell value meaning ``None``.
_NO_LEVEL = int(np.iinfo(np.int32).min)


class NodeColumns:
    """Six per-node scalars as parallel arrays keyed by node id."""

    __slots__ = (
        "reading",
        "level",
        "forwarded_veto",
        "forwarded_beacon",
        "crash_suspected",
        "broadcast_index",
    )

    def __init__(self, num_ids: int) -> None:
        self.reading = np.zeros(num_ids, dtype=np.float64)
        self.level = np.full(num_ids, _NO_LEVEL, dtype=np.int32)
        self.forwarded_veto = np.zeros(num_ids, dtype=bool)
        self.forwarded_beacon = np.zeros(num_ids, dtype=bool)
        self.crash_suspected = np.zeros(num_ids, dtype=bool)
        self.broadcast_index = np.zeros(num_ids, dtype=np.int64)

    def get_level(self, node_id: int) -> Optional[int]:
        level = int(self.level[node_id])
        return None if level == _NO_LEVEL else level

    def set_level(self, node_id: int, value: Optional[int]) -> None:
        self.level[node_id] = _NO_LEVEL if value is None else value
