"""Confirmation phase: Slotted One-time Flooding with Audit Trail (§IV-C).

After aggregation, the base station broadcasts the minima it received.
Any sensor whose own value is *smaller* than the broadcast minimum for
some instance becomes a **vetoer**.  SOF then propagates *a* veto to the
base station:

* all vetoers transmit their veto to every neighbour in interval 1;
* a non-vetoer forwards only the **first** veto it receives — received in
  interval ``i``, forwarded in interval ``i + 1`` — and ignores all
  others (one-time);
* every send/forward is recorded as an audit tuple
  ``<interval, message, sensor key, in-edge key, out-edge key>``.

The slotting bounds every audit trail at ``L + 1`` tuples; the one-time
rule makes the protocol immune to volume: an honest relay transmits at
most one payload in the whole phase, so spurious vetoes cannot exhaust
its forwarding capacity — they can at worst *replace* the legitimate
veto, which still hands the base station a junk trail to pinpoint
(Lemma 1: if any honest vetoer exists, the base station receives *some*
veto).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..crypto.mac import verify_mac
from ..keys.registry import BASE_STATION_ID
from ..net.message import VetoMessage
from ..net.network import Delivery, Network
from .contexts import ConfirmationContext
from .phase_state import HonestStep, honest_step


@dataclass
class ConfirmationResult:
    """What the base station learned from one confirmation phase."""

    broadcast_minima: Tuple[float, ...]
    # Earliest valid veto (message, delivery, arrival interval), if any.
    valid_veto: Optional[Tuple[VetoMessage, Delivery, int]] = None
    # Earliest spurious veto, if any.
    spurious_veto: Optional[Tuple[VetoMessage, Delivery, int]] = None
    all_bs_deliveries: List[Tuple[Delivery, int]] = field(default_factory=list)

    @property
    def silent(self) -> bool:
        """True when no veto at all reached the base station."""
        return self.valid_veto is None and self.spurious_veto is None


def run_confirmation(
    network: Network,
    adversary,
    depth_bound: int,
    nonce: bytes,
    broadcast_minima: Sequence[float],
) -> ConfirmationResult:
    """Run one confirmation phase (broadcast of minima + SOF)."""
    L = depth_bound
    minima = tuple(broadcast_minima)
    # Announce the minima, the starting time and the fresh nonce (§IV-C).
    network.authenticated_flood("confirmation", minima, nonce)

    phase = network.new_phase("confirmation", L)
    ctx = ConfirmationContext(
        network=network,
        phase=phase,
        depth_bound=L,
        nonce=nonce,
        broadcast_minima=minima,
    )

    honest_ids = network.honest_ids
    schedule = honest_step(network, phase, VetoSchedule, honest_ids, nonce, minima)

    bs_arrivals: List[Tuple[Delivery, int]] = []

    for k in phase.intervals():
        if adversary is not None:
            for node_id in sorted(network.malicious_ids):
                adversary.conf_interval(ctx, node_id, k)

        schedule.tick(k)
        schedule.deliver(k)

        # Base station collects arrivals.
        for delivery in phase.verified_inbox(BASE_STATION_ID, k):
            if isinstance(delivery.payload, VetoMessage):
                bs_arrivals.append((delivery, k))

    network.metrics.record_flooding_rounds(1.0, "confirmation-phase")
    return _base_station_classify(network, minima, nonce, bs_arrivals, L)


class VetoSchedule(HonestStep):
    """The SOF phase's honest step: the sensors still waiting for a veto
    plus the pending vetoes as parallel lists.

    Building it makes every vetoer's veto (they transmit in interval 1
    and ignore all incoming vetoes).  The pending lists drain in
    ascending id order for free: the vetoer scan and each interval's
    adopter scan both visit ascending ids, and the schedule is fully
    drained every interval, so appends are always already sorted.
    The node columns get each sender's ``forwarded_veto`` flag too, so
    post-phase readers (``ExecutionResult.num_vetoers``) see it.
    """

    __slots__ = ("waiting", "vetoers", "_ids", "_vetoes")

    def __init__(self, network, phase, ids, nonce, minima) -> None:
        super().__init__(network, phase)
        # Hosted sensors that have not sent or forwarded a veto.
        self.waiting = set(ids)
        self._ids: List[int] = []
        self._vetoes: List[object] = []
        depth_bound = phase.num_intervals
        forwarded = network.node_columns.forwarded_veto
        for node_id in ids:
            veto = _make_veto(network, node_id, minima, nonce, depth_bound)
            if veto is not None:
                self._schedule(node_id, veto)
                forwarded[node_id] = True
        # Vetoers not yet reported to a coordinator's copy.
        self.vetoers: List[int] = list(self._ids)

    def _schedule(self, node_id: int, veto) -> None:
        self.waiting.discard(node_id)
        self._ids.append(node_id)
        self._vetoes.append(veto)

    def tick(self, k: int) -> None:
        """Transmit everything scheduled for this interval as one block;
        each sender's audit send rows follow it."""
        ids, vetoes = self._ids, self._vetoes
        if not ids:
            return
        self._ids, self._vetoes = [], []
        network = self.network
        self.phase.broadcast(ids, vetoes, k)
        sends = network.audit.confirmation_sends
        for node_id, veto in zip(ids, vetoes):
            sends.add(node_id, k, network.secure_links(node_id), (veto,))

    def deliver(self, k: int) -> None:
        """Waiting sensors adopt the first verified veto they received.

        One sweep over the interval's rows finds each waiting sensor's
        first verified veto; adopters then record their receipt and
        schedule the veto in ascending id order.
        """
        waiting = self.waiting
        if k >= self.phase.num_intervals or not waiting:
            return  # a forward scheduled for interval L+1 could never land
        receivers, batch_ids, batches, key_indices, verdicts = self.phase.rows(k)
        first: Dict[int, int] = {}
        for row, receiver in enumerate(receivers):
            if (
                receiver in waiting
                and receiver not in first
                and verdicts[row]
                and isinstance(batches[batch_ids[row]].payload, VetoMessage)
            ):
                first[receiver] = row
        forwarded = self.network.node_columns.forwarded_veto
        receipts = self.network.audit.confirmation_receipts
        for node_id in sorted(first):
            row = first[node_id]
            batch = batches[batch_ids[row]]
            forwarded[node_id] = True
            receipts.add(
                node_id, k, ((batch.claimed_sender, key_indices[row]),), (batch.payload,)
            )
            self._schedule(node_id, batch.payload)

    def report(self) -> tuple:
        vetoers, self.vetoers = self.vetoers, []
        return tuple(vetoers)

    def absorb(self, rows) -> None:
        self.network.node_columns.forwarded_veto[list(rows)] = True


def _make_veto(network, node_id, minima, nonce, depth_bound) -> Optional[VetoMessage]:
    """Build honest sensor ``node_id``'s veto for the first violated
    instance, if any."""
    from ..crypto.mac import compute_mac

    columns = network.node_columns
    if columns.crash_suspected[node_id]:
        # Benign-failure self-awareness (repro.faults): a sensor that
        # crashed mid-execution or missed an authenticated broadcast
        # cannot trust its own view of the minima; vetoing on it would
        # trigger pinpointing over a gap its own radio created.  It
        # abstains — correctness degrades (its value may be missing from
        # the answer), safety does not.
        return None
    level = int(columns.level[node_id])
    if not 1 <= level <= depth_bound:
        # A sensor without a valid aggregation level cannot name the
        # level field of a veto; it abstains (relevant only under the
        # hop-count baseline, where this is the measured damage).
        return None
    if columns.query_values is None:
        own_values = [float(columns.reading[node_id])] * len(minima)
    else:
        own_values = columns.query_values[node_id].tolist()
    for instance, minimum in enumerate(minima):
        if instance < len(own_values) and own_values[instance] < minimum:
            value = own_values[instance]
            mac = compute_mac(
                network.registry.sensor_key(node_id), node_id, instance, value, level, nonce
            )
            return VetoMessage(
                sensor_id=node_id,
                value=value,
                level=level,
                mac=mac,
                instance=instance,
            )
    return None


def _base_station_classify(
    network: Network,
    minima: Tuple[float, ...],
    nonce: bytes,
    arrivals: List[Tuple[Delivery, int]],
    depth_bound: int,
) -> ConfirmationResult:
    """Split arrivals into valid and spurious vetoes (Figure 1, steps 6-8).

    A veto is *valid* when its sensor-key MAC verifies for the claimed
    (unrevoked) sensor, its value undercuts the broadcast minimum of its
    instance, and its level is plausible.  Everything else is spurious —
    junk injected by the adversary, since no honest sensor emits it.
    """
    result = ConfirmationResult(broadcast_minima=minima, all_bs_deliveries=arrivals)
    registry = network.registry
    for delivery, interval in arrivals:
        veto = delivery.payload
        assert isinstance(veto, VetoMessage)
        valid = (
            0 <= veto.instance < len(minima)
            and veto.value < minima[veto.instance]
            and 1 <= veto.level <= depth_bound
            and 1 <= veto.sensor_id
            and veto.sensor_id < network.topology.num_nodes
            and not registry.revocation.is_sensor_revoked(veto.sensor_id)
            and verify_mac(
                registry.sensor_key(veto.sensor_id),
                veto.mac,
                veto.sensor_id,
                veto.instance,
                veto.value,
                veto.level,
                nonce,
            )
        )
        if valid and result.valid_veto is None:
            result.valid_veto = (veto, delivery, interval)
        elif not valid and result.spurious_veto is None:
            result.spurious_veto = (veto, delivery, interval)
    return result
