"""The MIN aggregation phase with distributed audit trail (Section IV-B).

Timing discipline (all derived from the timestamp tree):

* a sensor at level ``i`` *listens* for child bundles only during
  interval ``L - i`` (a level ``i+1`` child transmits in interval
  ``L - (i+1) + 1 = L - i``);
* it transmits its own bundle — the per-instance minimum over its own
  messages and every verified receipt — during interval ``L - i + 1``;
* the base station (level 0) listens during interval ``L``.

Accepting child messages *only in the expected interval* is what makes
the recorded audit receipts line up with the level arithmetic of the
pinpointing predicates: an honest sensor's receipt at interval
``L - l + 1`` is, by construction, a receipt "from a child at level
``l``", no matter what level the actual transmitter claims.

Every forwarded message is recorded as
``<level, message, sensor key, in-edge key, out-edge key>`` split across
the network audit log's send and receipt tables (Section IV-B's audit
tuples).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ProtocolError
from ..keys.registry import BASE_STATION_ID
from ..net.message import ReadingMessage, SynopsisBundle
from ..net.network import Delivery, Network
from .contexts import AggregationContext
from .phase_state import HonestStep, honest_step


@dataclass
class AggregationResult:
    """What the base station learned from one aggregation phase."""

    nonce: bytes
    num_instances: int
    # Per instance: the minimum message received (None when nothing arrived).
    minima: List[Optional[ReadingMessage]] = field(default_factory=list)
    # Delivery that carried each instance's minimum (for junk tracking).
    carrying_delivery: List[Optional[Delivery]] = field(default_factory=list)
    # First instance whose minimum fails verification, with its delivery.
    junk: Optional[Tuple[int, ReadingMessage, Delivery]] = None

    def minimum_values(self) -> List[float]:
        """Per-instance minima as floats; +inf where nothing arrived."""
        return [m.value if m is not None else float("inf") for m in self.minima]


def run_aggregation(
    network: Network,
    adversary,
    depth_bound: int,
    nonce: bytes,
    own_messages: Dict[int, List[ReadingMessage]],
    num_instances: int,
    verify_minimum: Callable[[int, ReadingMessage], bool],
) -> AggregationResult:
    """Run one aggregation phase.

    ``own_messages`` maps each honest sensor id to its per-instance
    messages, already MAC'd under its sensor key by the driver.
    ``verify_minimum(instance, message)`` is the base station's check on
    a candidate minimum: sensor-key MAC plus (for synopsis queries) that
    the value corresponds to *some* legal reading (Section VIII).
    """
    L = depth_bound
    phase = network.new_phase("aggregation", L)
    ctx = AggregationContext(
        network=network,
        phase=phase,
        depth_bound=L,
        nonce=nonce,
        num_instances=num_instances,
    )

    honest_ids = network.honest_ids
    schedule = honest_step(
        network, phase, SlotSchedule, honest_ids, num_instances,
        own_messages=own_messages,
    )

    bs_deliveries: List[Delivery] = []
    for k in phase.intervals():
        # Malicious sensors act first within the interval so injected
        # frames land in the same slot honest listeners are reading.
        if adversary is not None:
            for node_id in sorted(network.malicious_ids):
                adversary.agg_interval(ctx, node_id, k)

        schedule.tick(k)
        schedule.deliver(k)

        # Base station listens in interval L.
        if k == L:
            bs_deliveries = phase.verified_inbox(BASE_STATION_ID, L)

    network.metrics.record_flooding_rounds(1.0, "aggregation-phase")
    return _base_station_decide(bs_deliveries, nonce, num_instances, verify_minimum)


class SlotSchedule(HonestStep):
    """The aggregation phase's honest step: participants grouped by
    level via one stable argsort.

    Participants are the step's ids with a valid level.  ``ids`` keeps
    them as Python ints (ascending); ``best`` holds each participant's
    best-so-far messages addressed by position.  A level group's
    positions ascend with participant order, so every slot sends and
    listens in ascending id order.  Building the schedule checks every
    participant brought its own messages.
    """

    __slots__ = ("ids", "best", "num_instances", "_groups")

    def __init__(self, network, phase, ids, num_instances, own_messages) -> None:
        super().__init__(network, phase)
        L = phase.num_intervals
        levels = network.node_columns.level[np.asarray(ids, dtype=np.int64)]
        valid = (levels >= 1) & (levels <= L)
        levels = levels[valid]
        self.ids: List[int] = list(compress(ids, valid.tolist()))
        self.num_instances = num_instances
        self.best: List[List[object]] = []
        count = len(self.ids)
        for node_id in self.ids:
            messages = own_messages.get(node_id)
            if messages is None or len(messages) != num_instances:
                raise ProtocolError(f"sensor {node_id} is missing its own messages")
            self.best.append(list(messages))
        self._groups: Dict[int, List[int]] = {}
        if count:
            order = np.argsort(levels, kind="stable")
            grouped = levels[order]
            uniques, starts = np.unique(grouped, return_index=True)
            bounds = starts.tolist() + [count]
            for position, lv in enumerate(uniques.tolist()):
                self._groups[int(lv)] = order[
                    bounds[position]:bounds[position + 1]
                ].tolist()

    def tick(self, k: int) -> None:
        """Level ``L - k + 1`` transmits its bundles as one block.

        Each sender's bundle goes to the parents it still has a usable
        link to.  The slot is atomic: a sender already out of capacity
        raises before any frame, byte or capacity charge of the slot
        lands.  Audit send rows follow the block, sender by sender.
        """
        level = self.phase.num_intervals - k + 1
        group = self._groups.get(level)
        if not group:
            return
        network, phase, ids, best = self.network, self.phase, self.ids, self.best
        parents = network.node_columns.parents
        senders, links, bundles = [], [], []
        for position in group:
            node_id = ids[position]
            pairs = network.usable_links(node_id, parents(node_id))
            if not pairs:
                continue  # every link to a parent was revoked since tree formation
            if not phase.remaining_capacity(node_id, k):
                raise ProtocolError(
                    f"honest sensor {node_id} exceeded capacity in aggregation; "
                    "honest senders transmit exactly one bundle"
                )
            senders.append(node_id)
            links.append(pairs)
            bundles.append(SynopsisBundle(messages=tuple(best[position])))
        phase.broadcast(senders, bundles, k, links)
        sends = network.audit.aggregation_sends
        for node_id, pairs, bundle in zip(senders, links, bundles):
            sends.add(node_id, level, pairs, bundle.messages)

    def deliver(self, k: int) -> None:
        """Level ``L - k`` collects its children's bundles (level 0 does
        not exist, so interval ``L`` naturally has no listeners).

        One sweep over the interval's rows: each verified bundle row
        addressed to a listener is recorded in the audit log and folded
        into that listener's best messages.  Listeners keep no state in
        common, so row order serves each in its own inbox order.
        """
        group = self._groups.get(self.phase.num_intervals - k)
        if not group:
            return
        ids, best, num_instances = self.ids, self.best, self.num_instances
        listening = {ids[position]: position for position in group}
        receipts = self.network.audit.aggregation_receipts
        receivers, batch_ids, batches, key_indices, verdicts = self.phase.rows(k)
        for row, receiver in enumerate(receivers):
            position = listening.get(receiver)
            if position is None or not verdicts[row]:
                continue
            batch = batches[batch_ids[row]]
            if not isinstance(batch.payload, SynopsisBundle):
                continue
            messages = [
                message for message in batch.payload.messages
                if 0 <= message.instance < num_instances
            ]
            receipts.add(receiver, k, ((batch.claimed_sender, key_indices[row]),), messages)
            row_best = best[position]
            for message in messages:
                if message < row_best[message.instance]:
                    row_best[message.instance] = message


def _base_station_decide(
    bs_deliveries: List[Delivery],
    nonce: bytes,
    num_instances: int,
    verify_minimum: Callable[[int, ReadingMessage], bool],
) -> AggregationResult:
    """Pick per-instance minima and detect spurious ones (Figure 1, step 4)."""
    result = AggregationResult(nonce=nonce, num_instances=num_instances)
    candidates: List[List[Tuple[ReadingMessage, Delivery]]] = [
        [] for _ in range(num_instances)
    ]
    for delivery in bs_deliveries:
        if not isinstance(delivery.payload, SynopsisBundle):
            continue
        for message in delivery.payload.messages:
            if 0 <= message.instance < num_instances:
                candidates[message.instance].append((message, delivery))

    for instance in range(num_instances):
        if not candidates[instance]:
            result.minima.append(None)
            result.carrying_delivery.append(None)
            continue
        message, delivery = min(candidates[instance], key=lambda pair: pair[0])
        result.minima.append(message)
        result.carrying_delivery.append(delivery)
        if result.junk is None and not verify_minimum(instance, message):
            result.junk = (instance, message, delivery)
    return result
