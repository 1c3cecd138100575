"""Per-sensor runtime state and the network's distributed audit trail.

An :class:`HonestNode` owns exactly what a deployed sensor would hold:

* its key material (sensor key + ring keys), the loot an adversary gets
  by compromising it;
* the index of the base station's hash chain it last verified (its
  authenticated-broadcast state, a column cell);
* protocol state (level, parents, current reading).

The audit tuples of Sections IV-B and IV-C, which the pinpointing
protocols later query through keyed predicate tests, live in the
network's :class:`AuditLog`.  In the paper they are
``<level, message, sensor key, in-edge key, out-edge key>`` (aggregation)
and ``<interval, message, sensor key, in-edge key, out-edge key>``
(confirmation).  The log keeps send and receipt tuples in separate
tables — a receipt pins down the *in-edge key* and arrival interval, a
send the *out-edge key* and level/interval — which is the same
information keyed for the queries of Figures 5 and 6.  Each table is a
set of flat columns with a ``node`` column, so one query answers a
predicate for every holder of a key at once; a sensor still answers
only from its own rows.
"""

from __future__ import annotations

from array import array
from typing import Callable, Collection, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..keys.soa import LazySensorKeyMaterial
from .message import message_digest


class AuditTable:
    """One kind of audit tuple for every sensor, as flat columns.

    Row ``i`` is the tuple ``(node, position, edge, peer, message)``:
    ``position`` is the level of an aggregation send and the interval of
    every other record (a child at tree level ``l`` transmits in
    interval ``L - l + 1``, so an arrival interval pins the child's
    level without trusting its claim); ``edge`` is the out-edge key of a
    send and the in-edge key of a receipt; ``peer`` is the receiver of a
    send and the claimed sender of a receipt.  Rows stay in append
    order, so one sensor's rows read in the order it recorded them.
    """

    __slots__ = ("node", "position", "edge", "peer", "message")

    def __init__(self) -> None:
        self.clear()

    def __len__(self) -> int:
        return len(self.message)

    def clear(self) -> None:
        self.node = array("i")
        self.position = array("i")
        self.edge = array("i")
        self.peer = array("i")
        self.message: List[object] = []

    def add(
        self,
        node: int,
        position: int,
        links: Sequence[Tuple[int, int]],
        messages: Sequence[object],
    ) -> None:
        """Record ``node``'s tuples at ``position``: one row per
        ``(peer, edge)`` link and message, link-major."""
        count = len(messages)
        rows = len(links) * count
        if not rows:
            return
        self.node.extend([node] * rows)
        self.position.extend([position] * rows)
        for peer, edge in links:
            self.edge.extend([edge] * count)
            self.peer.extend([peer] * count)
            self.message.extend(messages)

    def rows_of(self, node: int) -> List[int]:
        """Indices of ``node``'s rows, in append order."""
        return np.flatnonzero(np.array(self.node, dtype=np.int32) == node).tolist()

    def query(
        self,
        candidates: Collection[int],
        position: int,
        key_low: int,
        key_high: int,
        match: Callable[[object], bool],
    ) -> Set[int]:
        """The ``candidates`` holding a row at ``position`` whose edge
        key lies in ``[key_low, key_high]`` and whose message satisfies
        ``match`` — every predicate body of Section VI, for every
        candidate at once."""
        found: Set[int] = set()
        if not candidates or not self.message:
            return found
        edges = np.array(self.edge, dtype=np.int32)
        rows = np.flatnonzero(
            (np.array(self.position, dtype=np.int32) == position)
            & (edges >= key_low)
            & (edges <= key_high)
        )
        node, message = self.node, self.message
        for row in rows.tolist():
            holder = node[row]
            if holder in candidates and holder not in found and match(message[row]):
                found.add(holder)
        return found


def value_at_most(bound: float, instance: int) -> Callable[[object], bool]:
    """Match a message of ``instance`` whose value is at most ``bound``."""
    return lambda message: message.instance == instance and message.value <= bound


def digest_equal(digest: bytes) -> Callable[[object], bool]:
    """Match the byte-identical message ``digest`` names."""
    return lambda message: message_digest(message) == digest


class AuditLog:
    """The network's distributed audit trail, one table per tuple kind.

    Honest steps and the adversary's mimicry and forgeries write the
    same tables; the protocol clears them all at the start of each
    execution, after the pinpointing that may follow the previous one.
    """

    __slots__ = (
        "aggregation_sends",
        "aggregation_receipts",
        "confirmation_sends",
        "confirmation_receipts",
    )

    def __init__(self) -> None:
        self.aggregation_sends = AuditTable()
        self.aggregation_receipts = AuditTable()
        self.confirmation_sends = AuditTable()
        self.confirmation_receipts = AuditTable()

    def clear(self) -> None:
        for name in self.__slots__:
            getattr(self, name).clear()


class HonestNode:
    """Runtime state of one honest sensor.

    The six per-node scalars (reading, level, the two one-time flags,
    the crash flag, the verified broadcast index) live in the network's
    shared :class:`~repro.core.node_columns.NodeColumns` arrays behind
    properties, so a million nodes cost six array cells each instead
    of six boxed attributes; readers get plain Python values back.
    """

    __slots__ = (
        "node_id",
        "material",
        "query_values",
        "parents",
        "_columns",
    )

    def __init__(
        self,
        node_id: int,
        material: LazySensorKeyMaterial,
        columns,
        reading: float = 0.0,
    ) -> None:
        # Set first: the scalar assignments below route through the
        # column-backed properties.
        self._columns = columns
        self.node_id = node_id
        self.material = material
        self.reading = reading
        # Per-instance values for the current query (set by the driver;
        # a plain MIN query uses [reading], synopsis queries the m
        # synopsis values).  Consulted when deciding whether to veto.
        self.query_values: Optional[List[float]] = None
        # Tree state (set during tree formation each execution)
        self.level: Optional[int] = None
        self.parents: List[int] = []
        # SOF one-time flag
        self.forwarded_veto = False
        # Tree-formation one-time flag
        self.forwarded_beacon = False
        # Benign-failure self-awareness (repro.faults): set when this
        # sensor crashed mid-execution or detectably missed an
        # authenticated broadcast.  A sensor that knows its view of the
        # execution is incomplete abstains from vetoing rather than
        # triggering pinpointing on a gap that is its own radio's fault.
        self.crash_suspected = False

    @property
    def sensor_key(self) -> bytes:
        return self.material.sensor_key

    def holds_pool_key(self, index: int) -> bool:
        return self.material.holds(index)

    def begin_execution(self, reading: Optional[float] = None) -> None:
        """Reset per-execution state (a fresh VMAT run from Figure 1)."""
        if reading is not None:
            self.reading = reading
        self.query_values = None
        self.level = None
        self.parents = []
        self.forwarded_veto = False
        self.forwarded_beacon = False
        # crash_suspected is deliberately NOT cleared here: the protocol
        # driver resets it before the query broadcast, which precedes
        # this call and may itself be the broadcast a node misses.

    def has_valid_level(self, depth_bound: int) -> bool:
        return self.level is not None and 1 <= self.level <= depth_bound

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(id={self.node_id}, "
            f"level={self.level}, reading={self.reading})"
        )

    @property
    def reading(self) -> float:
        return float(self._columns.reading[self.node_id])

    @reading.setter
    def reading(self, value: float) -> None:
        self._columns.reading[self.node_id] = value

    @property
    def level(self) -> Optional[int]:
        return self._columns.get_level(self.node_id)

    @level.setter
    def level(self, value: Optional[int]) -> None:
        self._columns.set_level(self.node_id, value)

    @property
    def forwarded_veto(self) -> bool:
        return bool(self._columns.forwarded_veto[self.node_id])

    @forwarded_veto.setter
    def forwarded_veto(self, value: bool) -> None:
        self._columns.forwarded_veto[self.node_id] = value

    @property
    def forwarded_beacon(self) -> bool:
        return bool(self._columns.forwarded_beacon[self.node_id])

    @forwarded_beacon.setter
    def forwarded_beacon(self, value: bool) -> None:
        self._columns.forwarded_beacon[self.node_id] = value

    @property
    def crash_suspected(self) -> bool:
        return bool(self._columns.crash_suspected[self.node_id])

    @crash_suspected.setter
    def crash_suspected(self, value: bool) -> None:
        self._columns.crash_suspected[self.node_id] = value

    @property
    def broadcast_index(self) -> int:
        """The μTESLA chain index this sensor last verified."""
        return int(self._columns.broadcast_index[self.node_id])
