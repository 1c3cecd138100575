"""Pinpointing and revocation (Section VI, Figures 4-6).

Veto-triggered pinpointing walks the aggregation audit trail from the
vetoer toward the base station; junk-triggered pinpointing walks a junk
trail from the base station toward the unknown source.  Every walk step
is made of *keyed predicate tests* — never direct replies, which would be
chokeable — and every failure branch revokes a key that, by Lemmas 4/5,
is provably held by a malicious sensor:

* a sensor that cannot identify its own edge key under its own sensor
  key is malicious → revoke the sensor (Figure 5, step 7);
* an edge key on which nobody admits, or whose holders answer the binary
  search inconsistently, is held by a malicious sensor → revoke the key
  (Figure 6, steps 2/7/12);
* a sensor that admits to an impossible tuple — an interval-``L``
  aggregation receipt (only the base station listens then) or
  originating a spurious interval-1 veto — is malicious → revoke the
  sensor.

Revoking a sensor means announcing its ring seed; the θ-threshold rule
(:class:`~repro.keys.revocation.RevocationState`) may additionally
revoke sensors whose rings have accumulated too many revoked keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..crypto.nonce import NonceSource
from ..errors import PinpointError
from ..keys.revocation import RevocationEvent
from ..net.message import ReadingMessage, VetoMessage, message_digest
from ..net.network import Delivery, Network
from .predicate_test import (
    AggForwarded,
    AggReceived,
    AggReceivedExact,
    AggSentExact,
    ConfReceivedExact,
    ConfSentExact,
    Predicate,
    run_keyed_predicate_test,
)


@dataclass
class PinpointOutcome:
    """Result of one pinpointing/revocation run.

    ``inconclusive`` is the benign-mode degradation signal: the walk hit
    an *absence-based* branch (nobody answered, no receipt found) whose
    blame logic is only sound under reliable links, so under an active
    fault injector it withholds the revocation instead of risking an
    honest sensor's keys.  See :class:`Pinpointer` for the split.
    """

    trigger: str  # "veto" | "junk-aggregation" | "junk-confirmation"
    revocations: List[RevocationEvent] = field(default_factory=list)
    blamed_key: Optional[int] = None
    blamed_sensor: Optional[int] = None
    steps: int = 0
    tests_run: int = 0
    inconclusive: bool = False
    inconclusive_reason: Optional[str] = None

    @property
    def revoked_key_indices(self) -> List[int]:
        return [e.target for e in self.revocations if e.kind == "key"]

    @property
    def revoked_sensor_ids(self) -> List[int]:
        return [e.target for e in self.revocations if e.kind == "sensor"]


class Pinpointer:
    """Runs the pinpointing protocols of Section VI over a network.

    ``benign_mode`` changes what the *absence-based* failure branches do.
    The paper's blame logic splits in two:

    * **positive-proof branches** — a sensor admitted (under its own
      sensor key) to an impossible tuple: an interval-``L`` aggregation
      receipt, originating junk at the max level, originating a spurious
      veto.  These are sound under arbitrary message loss: the admission
      itself is the evidence.  They always revoke.
    * **absence-based branches** — nobody admitted, no receipt was
      found, a search went unanswered.  Sound only when links are
      reliable: under benign loss the silence may be a crashed sensor or
      a dropped predicate-test reply.  In benign mode (a fault injector
      is attached) these mark the outcome *inconclusive* instead of
      revoking, so a benign failure never costs an honest sensor its
      keys; the session simply re-executes.
    """

    def __init__(
        self,
        network: Network,
        adversary,
        depth_bound: int,
        nonce_source: NonceSource,
        benign_mode: bool = False,
    ) -> None:
        self.network = network
        self.adversary = adversary
        self.depth_bound = depth_bound
        self.nonces = nonce_source
        self.benign_mode = benign_mode
        self.tests_run = 0
        self._tests_at_start = 0

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def veto_triggered(self, veto: VetoMessage) -> PinpointOutcome:
        """Figure 4: track the vetoed value from the vetoer toward the
        base station until some key is revoked."""
        outcome = PinpointOutcome(trigger="veto")
        self._tests_at_start = self.tests_run
        current = veto.sensor_id
        level = veto.level
        value = veto.value
        instance = veto.instance

        while True:
            outcome.steps += 1
            edge_key = self._find_edge_key_to_blame(current, level, value, instance)
            if edge_key is None:
                # Figure 5, step 7: the sensor would not identify any key.
                self._revoke_sensor_or_defer(outcome, current, "refused Figure-5 search")
                return self._finish(outcome)
            parent = self._find_parent(edge_key, level, value, instance)
            if parent is None:
                # Figure 6, steps 2/7/12.
                self._revoke_key_or_defer(outcome, edge_key, "no consistent admitter (Figure 6)")
                return self._finish(outcome)
            if level == 1:
                # The admitted receipt is at aggregation interval L, where
                # only the base station listens; no honest sensor can hold
                # such a tuple, so the (sensor-key-confirmed) admitter is
                # provably malicious.
                self._revoke_sensor(outcome, parent, "claimed interval-L receipt")
                return self._finish(outcome)
            current = parent
            level -= 1

    def junk_aggregation(self, message: ReadingMessage, delivery: Delivery) -> PinpointOutcome:
        """Section VI-B: track a spurious aggregation minimum from the
        base station toward its source (level increases along the walk)."""
        outcome = PinpointOutcome(trigger="junk-aggregation")
        self._tests_at_start = self.tests_run
        digest = message_digest(message)
        edge_key = delivery.key_index
        level = 1
        L = self.depth_bound

        while True:
            outcome.steps += 1
            sender = self._find_junk_agg_sender(edge_key, digest, level)
            if sender is None:
                self._revoke_key_or_defer(outcome, edge_key, "nobody admits forwarding junk")
                return self._finish(outcome)
            if level == L:
                # A level-L sensor has no listening interval, so it must
                # have *originated* the message; honest sensors originate
                # only validly MAC'd readings — the admitter is malicious.
                self._revoke_sensor(outcome, sender, "originated junk at max level")
                return self._finish(outcome)
            in_key = self._find_junk_agg_in_edge(sender, digest, interval=L - level)
            if in_key is None:
                # An honest forwarder always has the matching receipt.
                self._revoke_sensor_or_defer(outcome, sender, "no receipt for forwarded junk")
                return self._finish(outcome)
            edge_key = in_key
            level += 1

    def junk_confirmation(
        self, veto: VetoMessage, delivery: Delivery, arrival_interval: int
    ) -> PinpointOutcome:
        """Section VI-B: track a spurious veto from the base station
        toward its source (interval decreases along the walk)."""
        outcome = PinpointOutcome(trigger="junk-confirmation")
        self._tests_at_start = self.tests_run
        digest = message_digest(veto)
        edge_key = delivery.key_index
        interval = arrival_interval

        while True:
            outcome.steps += 1
            sender = self._find_junk_conf_sender(edge_key, digest, interval)
            if sender is None:
                self._revoke_key_or_defer(outcome, edge_key, "nobody admits forwarding junk veto")
                return self._finish(outcome)
            if interval == 1:
                # Interval-1 senders are vetoers by definition; an honest
                # vetoer's veto carries a valid MAC, so admitting to this
                # spurious one is proof of maliciousness.
                self._revoke_sensor(outcome, sender, "originated spurious veto")
                return self._finish(outcome)
            in_key = self._find_junk_conf_in_edge(sender, digest, interval - 1)
            if in_key is None:
                self._revoke_sensor_or_defer(outcome, sender, "no receipt for forwarded junk veto")
                return self._finish(outcome)
            edge_key = in_key
            interval -= 1

    # ------------------------------------------------------------------
    # Figure 5 and its junk-trail analogues: binary search over a ring
    # ------------------------------------------------------------------
    def _find_edge_key_to_blame(
        self, sensor_id: int, level: int, value: float, instance: int
    ) -> Optional[int]:
        """Figure 5: which edge key did ``sensor_id`` (at ``level``) use
        to forward a value <= ``value`` to its parent?  ``None`` means the
        sensor failed the search and must itself be revoked."""
        return self._ring_binary_search(
            sensor_id,
            lambda low, high: AggForwarded(
                level=level, value_bound=value, key_low=low, key_high=high,
                instance=instance,
            ),
        )

    def _find_junk_agg_in_edge(
        self, sensor_id: int, digest: bytes, interval: int
    ) -> Optional[int]:
        return self._ring_binary_search(
            sensor_id,
            lambda low, high: AggReceivedExact(
                digest=digest, interval=interval, key_low=low, key_high=high
            ),
        )

    def _find_junk_conf_in_edge(
        self, sensor_id: int, digest: bytes, interval: int
    ) -> Optional[int]:
        return self._ring_binary_search(
            sensor_id,
            lambda low, high: ConfReceivedExact(
                digest=digest, interval=interval, key_low=low, key_high=high
            ),
        )

    def _ring_binary_search(self, sensor_id: int, make_predicate) -> Optional[int]:
        """Binary search over a sensor's (non-revoked) ring indices via
        keyed predicate tests on its sensor key (Figure 5)."""
        registry = self.network.registry
        revocation = registry.revocation
        domain: Sequence[int] = [
            z for z in registry.ring(sensor_id)
            if not revocation.is_key_revoked(z)
        ]
        if not domain:
            return None
        key_ref = ("sensor", sensor_id)
        x, y = 0, len(domain) - 1
        while x < y:
            i = (x + y) // 2
            if self._test(key_ref, make_predicate(domain[x], domain[i])):
                y = i
            else:
                x = i + 1
        # Final confirmation on the single remaining candidate; failure is
        # the paper's "x > y" branch.
        if self._test(key_ref, make_predicate(domain[x], domain[x])):
            return domain[x]
        return None

    # ------------------------------------------------------------------
    # Figure 6 and its junk-trail analogues: binary search over holders
    # ------------------------------------------------------------------
    def _find_parent(
        self, edge_key: int, child_level: int, value: float, instance: int
    ) -> Optional[int]:
        return self._holders_binary_search(
            edge_key,
            lambda id_low, id_high: AggReceived(
                id_low=id_low, id_high=id_high, value_bound=value,
                child_level=child_level, key_index=edge_key, instance=instance,
            ),
        )

    def _find_junk_agg_sender(
        self, edge_key: int, digest: bytes, level: int
    ) -> Optional[int]:
        return self._holders_binary_search(
            edge_key,
            lambda id_low, id_high: AggSentExact(
                id_low=id_low, id_high=id_high, digest=digest, level=level,
                key_index=edge_key,
            ),
        )

    def _find_junk_conf_sender(
        self, edge_key: int, digest: bytes, interval: int
    ) -> Optional[int]:
        return self._holders_binary_search(
            edge_key,
            lambda id_low, id_high: ConfSentExact(
                id_low=id_low, id_high=id_high, digest=digest, interval=interval,
                key_index=edge_key,
            ),
        )

    def _holders_binary_search(self, edge_key: int, make_predicate) -> Optional[int]:
        """Figure 6: find one (sensor-key-confirmed) holder of ``edge_key``
        satisfying the predicate.  ``None`` means the search failed and
        the edge key must be revoked."""
        registry = self.network.registry
        revocation = registry.revocation
        holders = [
            h for h in registry.holders(edge_key)
            if not revocation.is_sensor_revoked(h)
        ]
        if not holders:
            return None
        key_ref = ("pool", edge_key)
        # Step 2: does anyone admit at all?
        if not self._test(key_ref, make_predicate(holders[0], holders[-1])):
            return None
        x, y = 0, len(holders) - 1
        while x < y:
            i = (x + y) // 2
            if self._test(key_ref, make_predicate(holders[x], holders[i])):
                y = i
            elif self._test(key_ref, make_predicate(holders[i + 1], holders[y])):
                x = i + 1
            else:
                # Step 12: inconsistent answers — some malicious sensor
                # holds the edge key.
                return None
        # Step 6: re-confirm under the candidate's own sensor key, so a
        # malicious co-holder cannot frame an honest sensor by id.
        candidate = holders[x]
        if self._test(("sensor", candidate), make_predicate(candidate, candidate)):
            return candidate
        return None

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _test(self, key_ref: Tuple[str, int], predicate: Predicate) -> bool:
        self.tests_run += 1
        return run_keyed_predicate_test(
            self.network,
            self.adversary,
            key_ref,
            predicate,
            self.nonces.next(),
            self.depth_bound,
        )

    def _revoke_key(self, outcome: PinpointOutcome, index: int, reason: str) -> None:
        events = self.network.registry.revoke_key(index, reason=reason)
        if not events:
            raise PinpointError(
                f"pinpointing re-revoked key {index}; the search domain "
                "should exclude revoked keys"
            )
        outcome.blamed_key = index
        outcome.revocations.extend(events)

    def _revoke_sensor(self, outcome: PinpointOutcome, sensor_id: int, reason: str) -> None:
        events = self.network.registry.revoke_sensor(sensor_id, reason=reason)
        if not events:
            raise PinpointError(f"pinpointing re-revoked sensor {sensor_id}")
        outcome.blamed_sensor = sensor_id
        outcome.revocations.extend(events)

    def _revoke_key_or_defer(
        self, outcome: PinpointOutcome, index: int, reason: str
    ) -> None:
        """Absence-based key blame: defer (inconclusive) in benign mode."""
        if self.benign_mode:
            self._defer(outcome, reason)
        else:
            self._revoke_key(outcome, index, reason)

    def _revoke_sensor_or_defer(
        self, outcome: PinpointOutcome, sensor_id: int, reason: str
    ) -> None:
        """Absence-based sensor blame: defer (inconclusive) in benign mode."""
        if self.benign_mode:
            self._defer(outcome, reason)
        else:
            self._revoke_sensor(outcome, sensor_id, reason)

    def _defer(self, outcome: PinpointOutcome, reason: str) -> None:
        outcome.inconclusive = True
        outcome.inconclusive_reason = reason
        tracer = getattr(self.network, "tracer", None)
        if tracer is not None:
            tracer.record(
                "pinpoint-inconclusive", trigger=outcome.trigger, reason=reason
            )

    def _finish(self, outcome: PinpointOutcome) -> PinpointOutcome:
        outcome.tests_run = self.tests_run - self._tests_at_start
        if not outcome.revocations and not outcome.inconclusive:
            raise PinpointError(
                "pinpointing terminated without revoking anything; "
                "Theorem 6 guarantees at least one revocation"
            )
        return outcome
