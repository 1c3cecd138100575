"""Revocation bookkeeping with the θ-threshold sensor rule (Section VI-C).

Revoking a single edge key does little against a sensor holding ``r = 250``
of them, so VMAT revokes a sensor *in full* (announcing its ring seed)
once ``theta`` of its ring keys have been individually revoked.  The rule
trades speed against safety: honest sensors that happen to share more
than ``theta`` pool keys with the adversary's combined rings can be
framed.  Figure 7 of the paper — reproduced in
:mod:`repro.analysis.misrevocation` — quantifies that trade-off.

The revoke/threshold logic lives here once; storage is pluggable.  This
dict backend (``{sensor: ring}``, inverted holder lists, per-sensor
counters) serves explicit-ring schemes and is the reference semantics
the array backend is tested against.
:class:`repro.keys.soa.RingTableRevocationState` overrides the small
storage hooks (``_ring_of``, ``_holder_ids``, ``_bump``,
``_due_sensors`` and friends) to run the same algorithm over shared
``int32`` arrays — event logs are identical between the two because the
control flow never forks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Literal, Mapping, Optional, Sequence, Set, Tuple

from ..errors import RevocationError

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
    rings:
        ``{sensor_id: sorted pool indices}`` for every deployed sensor.
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
        self,
        rings: Mapping[int, Sequence[int]],
        theta: Optional[int] = None,
        cascade: bool = False,
    ) -> None:
        self._init_scalars(theta, cascade)
        self._rings: Dict[int, Tuple[int, ...]] = {
            sensor: tuple(indices) for sensor, indices in rings.items()
        }
        self._holders: Dict[int, List[int]] = {}
        for sensor, indices in self._rings.items():
            for index in indices:
                self._holders.setdefault(index, []).append(sensor)
        for holders in self._holders.values():
            holders.sort()
        # Total revoked keys per ring (any reason) vs keys *exposed* by
        # individual revocations — only the latter feed the θ rule when
        # cascade is off.
        self._revoked_count: Dict[int, int] = {sensor: 0 for sensor in self._rings}
        self._exposed_count: Dict[int, int] = {sensor: 0 for sensor in self._rings}

    def _init_scalars(self, theta: Optional[int], cascade: bool) -> None:
        """Backend-independent state; subclasses call this instead of
        ``__init__`` and provide their own ring/holder/counter storage."""
        if theta is not None and theta < 1:
            raise RevocationError("theta must be >= 1 when set")
        self.theta = theta
        self.cascade = cascade
        self._revoked_keys: Set[int] = set()
        self._revoked_sensors: Set[int] = set()
        self.log: List[RevocationEvent] = []

    # ------------------------------------------------------------------
    # Storage hooks (overridden by array-backed states)
    # ------------------------------------------------------------------
    def _known_sensor(self, sensor_id: int) -> bool:
        return sensor_id in self._rings

    def _ring_of(self, sensor_id: int) -> Sequence[int]:
        """This sensor's sorted ring indices (Python ints)."""
        return self._rings[sensor_id]

    def _holder_ids(self, index: int) -> Sequence[int]:
        """Ascending sensor ids holding pool key ``index``."""
        return self._holders.get(index, ())

    def _bump(self, sensors: Iterable[int], exposed: bool) -> None:
        """Count one revoked (and possibly exposed) key against each
        holder; ids are distinct within one call."""
        for sensor in sensors:
            self._revoked_count[sensor] += 1
            if exposed:
                self._exposed_count[sensor] += 1

    def _revoked_count_of(self, sensor_id: int) -> int:
        return self._revoked_count[sensor_id]

    def _exposed_count_of(self, sensor_id: int) -> int:
        return self._exposed_count[sensor_id]

    def _due_sensors(self) -> List[int]:
        """Unrevoked sensors at/over θ by exposed count, in deployment
        order (registry-built states enumerate sensors ascending)."""
        return [
            sensor
            for sensor, count in self._exposed_count.items()
            if count >= self.theta and sensor not in self._revoked_sensors
        ]

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
        if not self._known_sensor(sensor_id):
            raise RevocationError(f"unknown sensor {sensor_id}")
        return self._revoked_count_of(sensor_id)

    def exposed_ring_count(self, sensor_id: int) -> int:
        """How many of this sensor's ring keys were individually exposed
        (the count the θ rule uses under no-cascade semantics)."""
        if not self._known_sensor(sensor_id):
            raise RevocationError(f"unknown sensor {sensor_id}")
        return self._exposed_count_of(sensor_id)

    def holders_of(self, index: int) -> Tuple[int, ...]:
        """Sorted sensor ids holding pool key ``index`` (revoked or not)."""
        return tuple(self._holder_ids(index))

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def revoke_key(self, index: int, reason: str = "pinpointed") -> List[RevocationEvent]:
        """Revoke one pool key; apply the θ rule.  Idempotent.

        Returns the list of events this action produced (possibly empty
        when the key was already revoked).
        """
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
        if not self._known_sensor(sensor_id):
            raise RevocationError(f"unknown sensor {sensor_id}")
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
        for index in self._ring_of(sensor_id):
            if index not in self._revoked_keys:
                key_event = RevocationEvent(
                    kind="key", target=index, reason=f"ring of sensor {sensor_id}"
                )
                self._apply_key(index, exposed=self.cascade)
                self.log.append(key_event)
                events.append(key_event)
        return events

    def _apply_key(self, index: int, exposed: bool) -> None:
        self._revoked_keys.add(index)
        self._bump(self._holder_ids(index), exposed)

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
