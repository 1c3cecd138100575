"""The network's distributed audit trail.

A sensor is an id into the network's columns: its key material is
served by :class:`~repro.keys.registry.KeyRegistry` (the loot an
adversary gets by compromising it), and its runtime state — reading,
query values, level, parents, the one-time flags, the verified
authenticated-broadcast index — lives in
:class:`~repro.core.node_columns.NodeColumns`.  What remains per sensor
is what it records.

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
from typing import Callable, Collection, List, Sequence, Set, Tuple

import numpy as np

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
