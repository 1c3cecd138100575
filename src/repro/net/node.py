"""Per-sensor runtime state and the distributed audit store.

An :class:`HonestNode` owns exactly what a deployed sensor would hold:

* its key material (sensor key + ring keys), the loot an adversary gets
  by compromising it;
* the index of the base station's hash chain it last verified (its
  authenticated-broadcast state, a column cell);
* protocol state (level, parents, current reading);
* an :class:`AuditStore` with the tuples of Sections IV-B and IV-C, the
  distributed audit trail the pinpointing protocols later query through
  keyed predicate tests.

The audit tuples in the paper are
``<level, message, sensor key, in-edge key, out-edge key>`` (aggregation)
and ``<interval, message, sensor key, in-edge key, out-edge key>``
(confirmation).  We keep send and receipt records separately — a receipt
pins down the *in-edge key* and arrival interval, a send record the
*out-edge key* and level/interval — which is the same information keyed
for the queries of Figures 5 and 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..keys.soa import LazySensorKeyMaterial
from .message import ReadingMessage, VetoMessage, message_digest


@dataclass(frozen=True)
class AggSendRecord:
    """This sensor, at ``level``, forwarded ``message`` to ``to`` over
    the edge key with pool index ``out_edge_index``."""

    level: int
    message: ReadingMessage
    out_edge_index: int
    to: int


@dataclass(frozen=True)
class AggReceiptRecord:
    """This sensor received ``message`` during aggregation interval
    ``interval`` over edge key ``in_edge_index`` (claimed sender ``frm``).

    A child at tree level ``l`` transmits in interval ``L - l + 1``, so
    the arrival interval identifies the child's level without trusting
    the child's claim.
    """

    interval: int
    message: ReadingMessage
    in_edge_index: int
    frm: int


@dataclass(frozen=True)
class ConfSendRecord:
    """SOF: sent/forwarded ``message`` in confirmation ``interval``."""

    interval: int
    message: VetoMessage
    out_edge_index: int
    to: int


@dataclass(frozen=True)
class ConfReceiptRecord:
    """SOF: received ``message`` in confirmation ``interval``."""

    interval: int
    message: VetoMessage
    in_edge_index: int
    frm: int


class AuditStore:
    """One sensor's share of the distributed audit trail."""

    def __init__(self) -> None:
        self.agg_sends: List[AggSendRecord] = []
        self.agg_receipts: List[AggReceiptRecord] = []
        self.conf_sends: List[ConfSendRecord] = []
        self.conf_receipts: List[ConfReceiptRecord] = []

    def clear(self) -> None:
        self.agg_sends.clear()
        self.agg_receipts.clear()
        self.conf_sends.clear()
        self.conf_receipts.clear()

    # ------------------------------------------------------------------
    # Queries backing the pinpointing predicates (Section VI)
    # ------------------------------------------------------------------
    def agg_forwarded_value(
        self,
        level: int,
        value_bound: float,
        key_low: int,
        key_high: int,
        instance: int = 0,
    ) -> bool:
        """Figure 5 predicate body: while at ``level`` this sensor sent a
        message with value <= ``value_bound`` whose out-edge key index
        lies in ``[key_low, key_high]``."""
        return any(
            record.level == level
            and record.message.instance == instance
            and record.message.value <= value_bound
            and key_low <= record.out_edge_index <= key_high
            for record in self.agg_sends
        )

    def agg_received_value(
        self,
        interval: int,
        value_bound: float,
        in_edge_index: int,
        instance: int = 0,
    ) -> bool:
        """Figure 6 predicate body: received a report with value <=
        ``value_bound`` over edge key ``in_edge_index`` during aggregation
        ``interval`` (i.e. from a child at the corresponding level)."""
        return any(
            record.interval == interval
            and record.message.instance == instance
            and record.message.value <= value_bound
            and record.in_edge_index == in_edge_index
            for record in self.agg_receipts
        )

    def agg_sent_exact(self, digest: bytes, level: int, out_edge_index: int) -> bool:
        """Junk-triggered (aggregation) analogue of Figure 6: forwarded
        exactly this message at ``level`` over ``out_edge_index``."""
        return any(
            record.level == level
            and record.out_edge_index == out_edge_index
            and message_digest(record.message) == digest
            for record in self.agg_sends
        )

    def agg_received_exact(
        self, digest: bytes, interval: int, key_low: int, key_high: int
    ) -> bool:
        """Junk-triggered (aggregation) analogue of Figure 5: received
        exactly this message in ``interval`` over a key in the range."""
        return any(
            record.interval == interval
            and key_low <= record.in_edge_index <= key_high
            and message_digest(record.message) == digest
            for record in self.agg_receipts
        )

    def conf_sent_exact(self, digest: bytes, interval: int, out_edge_index: int) -> bool:
        """Junk-triggered (confirmation): forwarded exactly this veto in
        ``interval`` over ``out_edge_index``."""
        return any(
            record.interval == interval
            and record.out_edge_index == out_edge_index
            and message_digest(record.message) == digest
            for record in self.conf_sends
        )

    def conf_received_exact(
        self, digest: bytes, interval: int, key_low: int, key_high: int
    ) -> bool:
        """Junk-triggered (confirmation): received exactly this veto in
        ``interval`` over a key in the range."""
        return any(
            record.interval == interval
            and key_low <= record.in_edge_index <= key_high
            and message_digest(record.message) == digest
            for record in self.conf_receipts
        )


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
        "audit",
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
        self.audit = AuditStore()
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
        """Reset per-execution state (a fresh VMAT run from Figure 1).

        Audit trails from the *previous* execution are cleared here — the
        pinpointing that may follow an execution runs before the next one
        starts, so the trail it needs is always intact.
        """
        if reading is not None:
            self.reading = reading
        self.query_values = None
        self.audit.clear()
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
