"""Revocation bookkeeping with the θ-threshold sensor rule (Section VI-C).

Revoking a single edge key does little against a sensor holding ``r = 250``
of them, so VMAT revokes a sensor *in full* (announcing its ring seed)
once ``theta`` of its ring keys have been individually revoked.  The rule
trades speed against safety: honest sensors that happen to share more
than ``theta`` pool keys with the adversary's combined rings can be
framed.  Figure 7 of the paper — reproduced in
:mod:`repro.analysis.misrevocation` — quantifies that trade-off.

One implementation serves every key scheme.  Rings are the rows of the
deployment's shared :class:`repro.keys.soa.RingTable` (drawn
Eschenauer–Gligor rows or a scheme's explicit ones), which also answers
who holds a revoked key; per-sensor revoked and exposed counts are two
flat integer arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Literal, Optional, Set

import numpy as np

from ..errors import RevocationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .soa import RingTable

RevocationKind = Literal["key", "sensor"]


@dataclass(frozen=True)
class RevocationEvent:
    """One revocation action, kept as an auditable log entry."""

    kind: RevocationKind
    target: int  # pool key index for "key", sensor id for "sensor"
    reason: str
    # For sensor revocations triggered by the threshold rule, the key
    # revocation that tipped the count.
    triggered_by_key: Optional[int] = None


class RevocationState:
    """Tracks revoked pool keys and sensors; applies the θ rule.

    Parameters
    ----------
    table:
        The deployment's :class:`repro.keys.soa.RingTable`: row
        ``s - 1`` holds sensor ``s``'s sorted pool indices.
    theta:
        Threshold of *exposed* ring keys at which a sensor is revoked in
        full.  ``None`` disables the rule (pure per-key revocation, the
        ablation baseline).
    cascade:
        Revoking a sensor also revokes its whole ring, but those
        ring-dump revocations are bookkeeping, not evidence: by default
        (``cascade=False``) only keys revoked *individually* — i.e.
        pinpointed in an actual attack — count toward other sensors'
        thresholds.  ``cascade=True`` switches to the unconditional
        reading of the rule (every revoked key counts, transitively),
        the pessimistic variant whose framing risk Figure 7 quantifies.
    """

    def __init__(
        self, table: "RingTable", theta: Optional[int] = None, cascade: bool = False
    ) -> None:
        if theta is not None and theta < 1:
            raise RevocationError("theta must be >= 1 when set")
        self.theta = theta
        self.cascade = cascade
        self._table = table
        self._revoked_keys: Set[int] = set()
        self._revoked_sensors: Set[int] = set()
        self.log: List[RevocationEvent] = []
        # Total revoked keys per ring (any reason) vs keys *exposed* by
        # individual revocations — only the latter feed the θ rule when
        # cascade is off.  Indexed by sensor id; slot 0 (the base
        # station) has no ring and never counts.
        self._revoked_count = np.zeros(table.num_nodes, dtype=np.int64)
        self._exposed_count = np.zeros(table.num_nodes, dtype=np.int64)

    def _check_sensor(self, sensor_id: int) -> None:
        if not 1 <= sensor_id < self._table.num_nodes:
            raise RevocationError(f"unknown sensor {sensor_id}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def revoked_keys(self) -> frozenset[int]:
        return frozenset(self._revoked_keys)

    @property
    def revoked_sensors(self) -> frozenset[int]:
        return frozenset(self._revoked_sensors)

    def is_key_revoked(self, index: int) -> bool:
        return index in self._revoked_keys

    def is_sensor_revoked(self, sensor_id: int) -> bool:
        return sensor_id in self._revoked_sensors

    def revoked_ring_count(self, sensor_id: int) -> int:
        """How many of this sensor's ring keys are currently revoked."""
        self._check_sensor(sensor_id)
        return int(self._revoked_count[sensor_id])

    def exposed_ring_count(self, sensor_id: int) -> int:
        """How many of this sensor's ring keys were individually exposed
        (the count the θ rule uses under no-cascade semantics)."""
        self._check_sensor(sensor_id)
        return int(self._exposed_count[sensor_id])

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def revoke_key(self, index: int, reason: str = "pinpointed") -> List[RevocationEvent]:
        """Revoke one pool key; apply the θ rule.  Idempotent.

        Returns the list of events this action produced (possibly empty
        when the key was already revoked).  An index outside the pool is
        rejected: nobody holds it, so it could only pad the log.
        """
        if not 0 <= index < self._table.pool_size:
            raise RevocationError(f"pool key {index} outside the pool")
        if index in self._revoked_keys:
            return []
        events = [RevocationEvent(kind="key", target=index, reason=reason)]
        self._apply_key(index, exposed=True)
        self.log.append(events[0])
        events.extend(self._run_threshold(trigger_key=index))
        return events

    def revoke_sensor(
        self,
        sensor_id: int,
        reason: str = "pinpointed",
        triggered_by_key: Optional[int] = None,
    ) -> List[RevocationEvent]:
        """Revoke a sensor in full: mark it revoked and revoke its ring.

        Idempotent.  The induced key revocations trigger further sensor
        revocations only under ``cascade=True``.
        """
        self._check_sensor(sensor_id)
        if sensor_id in self._revoked_sensors:
            return []
        events = self._revoke_sensor_direct(sensor_id, reason, triggered_by_key)
        if self.cascade:
            events.extend(self._run_threshold(trigger_key=triggered_by_key))
        return events

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _revoke_sensor_direct(
        self, sensor_id: int, reason: str, triggered_by_key: Optional[int]
    ) -> List[RevocationEvent]:
        """Mark the sensor revoked and revoke its ring keys, without
        applying the threshold rule to the induced key revocations."""
        event = RevocationEvent(
            kind="sensor", target=sensor_id, reason=reason, triggered_by_key=triggered_by_key
        )
        self._revoked_sensors.add(sensor_id)
        self.log.append(event)
        events = [event]
        for index in self._table.row_list(sensor_id):
            if index not in self._revoked_keys:
                key_event = RevocationEvent(
                    kind="key", target=index, reason=f"ring of sensor {sensor_id}"
                )
                self._apply_key(index, exposed=self.cascade)
                self.log.append(key_event)
                events.append(key_event)
        return events

    def _apply_key(self, index: int, exposed: bool) -> None:
        """Mark a key revoked and count it against each holder's ring
        (callers append the log entry)."""
        self._revoked_keys.add(index)
        holders = list(self._table.holders(index))
        if holders:
            self._revoked_count[holders] += 1
            if exposed:
                self._exposed_count[holders] += 1

    def _due_sensors(self) -> List[int]:
        """Unrevoked sensors at/over θ by exposed count, ascending."""
        due = np.nonzero(self._exposed_count >= self.theta)[0]
        return [s for s in due.tolist() if s not in self._revoked_sensors]

    def _run_threshold(self, trigger_key: Optional[int]) -> List[RevocationEvent]:
        """Revoke every sensor whose *exposed* count is at/over θ.

        Without cascade, ring-dump revocations never increment exposed
        counts, so one pass reaches the fixed point.  With cascade every
        revoked key counts and the pass repeats until quiescent.
        """
        if self.theta is None:
            return []
        events: List[RevocationEvent] = []
        while True:
            due = self._due_sensors()
            if not due:
                break
            for sensor in due:
                if sensor in self._revoked_sensors:
                    continue
                events.extend(
                    self._revoke_sensor_direct(
                        sensor,
                        reason=f"threshold theta={self.theta} reached",
                        triggered_by_key=trigger_key,
                    )
                )
            if not self.cascade:
                break
        return events

    def threshold_pending(self) -> Set[int]:
        """Sensors at/over θ (by exposed count) but not yet revoked —
        nonempty only when the rule is disabled (θ=None uses total
        counts for reporting)."""
        if self.theta is None:
            return set()
        return set(self._due_sensors())
