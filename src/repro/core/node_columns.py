"""Parallel per-node state columns behind the column kernel's node views.

At 1M nodes the per-node scalar state — reading, tree level, the two
one-time forward flags, the crash-suspected flag — costs far more as
Python attributes (a boxed float, a boxed int-or-None and three bools
per instance) than as five flat arrays keyed by node id.  This module
holds exactly those five scalars as columns sized by the topology's
contiguous id space (ids are ``range(num_nodes)``; row 0, the base
station, is simply unused):

* ``reading`` — ``float64`` (readings are floats everywhere; the
  protocol driver coerces with ``float()`` before installing them);
* ``level`` — ``int32``; a level the column cannot hold — ``None``
  or a hop count outside ``int32`` (the hop-count baseline stores
  whatever a possibly forged beacon claims, negative or past ``2**31``
  included) — is the ``_LEVEL_SPILL`` sentinel, with the actual value
  (if any) in the ``level_spill`` dict;
* ``forwarded_veto`` / ``forwarded_beacon`` / ``crash_suspected`` —
  boolean columns.

:class:`~repro.net.node.HonestNode` exposes each column cell through
properties with plain Python types (``float``/``int``/``bool``/
``None``), so every phase loop, adversary hook, fault injector and
service host reads and writes node state as attributes — the node
objects are thin property wrappers over these arrays, not copies.
Containers that are per-node but not scalar (``parents``,
``query_values``, the audit trail) stay object slots on the nodes; the
tree phase arenas ``parents`` during its hot loop
(:class:`~repro.core.phase_state.TreeColumns`).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

#: ``level`` cell value meaning "``None``, or see ``level_spill``".
_LEVEL_SPILL = int(np.iinfo(np.int32).min)
_LEVEL_MAX = int(np.iinfo(np.int32).max)


class NodeColumns:
    """Five per-node scalars as parallel arrays keyed by node id."""

    __slots__ = (
        "reading",
        "level",
        "level_spill",
        "forwarded_veto",
        "forwarded_beacon",
        "crash_suspected",
    )

    def __init__(self, num_ids: int) -> None:
        self.reading = np.zeros(num_ids, dtype=np.float64)
        self.level = np.full(num_ids, _LEVEL_SPILL, dtype=np.int32)
        self.level_spill: Dict[int, int] = {}
        self.forwarded_veto = np.zeros(num_ids, dtype=bool)
        self.forwarded_beacon = np.zeros(num_ids, dtype=bool)
        self.crash_suspected = np.zeros(num_ids, dtype=bool)

    def get_level(self, node_id: int) -> Optional[int]:
        level = int(self.level[node_id])
        if level != _LEVEL_SPILL:
            return level
        return self.level_spill.get(node_id)

    def set_level(self, node_id: int, value: Optional[int]) -> None:
        spill = self.level_spill
        if value is not None and _LEVEL_SPILL < value <= _LEVEL_MAX:
            self.level[node_id] = value
            if spill:
                spill.pop(node_id, None)
            return
        self.level[node_id] = _LEVEL_SPILL
        if value is None:
            spill.pop(node_id, None)
        else:
            spill[node_id] = value
