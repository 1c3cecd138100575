"""Every sensor's runtime state as parallel columns keyed by node id.

In the paper a sensor is a few values: its key material (served by
:class:`~repro.keys.registry.KeyRegistry` from the shared ring table),
its last verified broadcast index, and per-execution protocol state —
reading, query values, level, parents and two one-time forward flags.
This module holds the state part as flat arrays sized by the
topology's contiguous id space (ids are ``range(num_nodes)``; row 0,
the base station, is simply unused), so a sensor is an id into them
and no per-sensor object exists:

* ``reading`` — ``float64`` (readings are floats everywhere; the
  protocol driver coerces with ``float()`` before installing them);
* ``query_values`` — the current execution's per-instance values, one
  ``(num_nodes, m)`` ``float64`` array per execution (``None`` before
  the first); a plain MIN query has ``m = 1``, synopsis queries the
  ``m`` synopsis values;
* ``level`` — ``int32``, with ``NO_LEVEL`` for "no level".  A cell only
  ever holds ``NO_LEVEL`` or a valid level in ``[1, depth_bound]``:
  :meth:`~repro.core.tree.TreeColumns.install` writes nothing else, and
  the hop-count baseline's raw (possibly forged, any-size) claims stay
  in the tree step's own columns, so ``1 <= level[i] <= L`` is the
  whole validity test;
* ``parents_arena`` / ``parents_start`` / ``parents_len`` — every
  sensor's parents as one CSR, handed over by the tree step once per
  tree formation (:meth:`parents`);
* ``forwarded_veto`` / ``forwarded_beacon`` / ``crash_suspected`` —
  boolean columns;
* ``broadcast_index`` — ``int64``, the μTESLA chain index the sensor
  last verified (0 = only the deployed anchor).  This is a sensor's
  whole authenticated-broadcast state: the chain value at that index
  is kept once by the network, whose floods advance the column
  (:meth:`~repro.net.network.Network.authenticated_flood`).

Readers convert a cell to a Python ``float``/``int``/``bool`` before
anything encodes, MACs or traces it: canonical encodings dispatch on
exact type.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

import numpy as np

#: ``level`` cell value meaning "no level".
NO_LEVEL = int(np.iinfo(np.int32).min)


class NodeColumns:
    """Per-sensor state as parallel arrays keyed by node id."""

    __slots__ = (
        "reading",
        "query_values",
        "level",
        "parents_arena",
        "parents_start",
        "parents_len",
        "forwarded_veto",
        "forwarded_beacon",
        "crash_suspected",
        "broadcast_index",
    )

    def __init__(self, num_ids: int) -> None:
        self.reading = np.zeros(num_ids, dtype=np.float64)
        self.query_values: Optional[np.ndarray] = None
        self.level = np.full(num_ids, NO_LEVEL, dtype=np.int32)
        self.parents_arena = array("i")
        self.parents_start = np.zeros(num_ids, dtype=np.int64)
        self.parents_len = np.zeros(num_ids, dtype=np.int32)
        self.forwarded_veto = np.zeros(num_ids, dtype=bool)
        self.forwarded_beacon = np.zeros(num_ids, dtype=bool)
        self.crash_suspected = np.zeros(num_ids, dtype=bool)
        self.broadcast_index = np.zeros(num_ids, dtype=np.int64)

    def parents(self, node_id: int) -> List[int]:
        """The sensor's parents from the last tree formation."""
        begin = int(self.parents_start[node_id])
        return self.parents_arena[begin:begin + int(self.parents_len[node_id])].tolist()
