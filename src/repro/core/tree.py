"""Tree formation (Section IV-A) — timestamp-based, plus the naive
hop-count baseline it replaces, plus multi-path rings (Section IV-D).

**VMAT variant (timestamp).**  The base station floods a beacon at an
authenticated, pre-announced start time.  A sensor's *level* is the
interval in which it first receives the beacon; it re-forwards only in
the next interval.  Because honest sensors delay exactly one interval per
hop, every honest sensor within honest-path depth ``L`` acquires a level
in ``[1, L]`` — and nothing the adversary does can push an honest
sensor's level *above* ``L`` (forwarding a beacon early can only lower
levels; forwarding late is ignored after the ``L``-th interval).

**Naive variant (hop count).**  The classic TAG-style flood in which the
level is the hop count carried *inside the message*.  A wormhole pair can
concatenate paths and inflate hop counts past ``L``, leaving victims with
no valid transmission slot (Figure 2(c)) — the ablation benchmark
``bench_ablation_tree`` measures exactly this.

**Multi-path rings.**  With ``NetworkConfig.multipath = True`` a sensor
records *every* neighbour whose beacon arrived in its level interval as a
parent, turning the tree into the ring structure of synopsis diffusion.

**One rule set.**  Both variants' honest rules live in
:class:`TreeColumns`, the phase's honest step
(:mod:`repro.core.phase_state`): inline runs build it over every honest
sensor, service node hosts over their hosted shards, and both finish
through :meth:`TreeColumns.install`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import ProtocolError
from ..keys.registry import BASE_STATION_ID
from ..net.message import TreeBeacon
from ..net.network import Network
from .contexts import TreeContext
from .node_columns import NO_LEVEL
from .phase_state import HonestStep, honest_step


@dataclass
class TreeFormationResult:
    """Outcome of one tree-formation phase."""

    variant: str
    levels: Dict[int, int] = field(default_factory=dict)  # honest sensors only
    parents: Dict[int, List[int]] = field(default_factory=dict)
    invalid_level_sensors: Set[int] = field(default_factory=set)

    def valid_fraction(self, honest_ids) -> float:
        """Fraction of honest sensors that obtained a usable level."""
        honest = list(honest_ids)
        if not honest:
            return 1.0
        return sum(1 for i in honest if i in self.levels) / len(honest)


class TreeColumns(HonestStep):
    """The tree phase's honest step: levels, a parents arena and the
    forward schedule, for both variants.

    Timestamp levels are accept intervals, always in ``[1, depth_bound]``,
    so they live in one ``int32`` column (``-1`` = no level yet).  The
    hop-count baseline instead adopts whatever hop count the first
    beacon *claims* — any integer a forged beacon carries, negative or
    past ``2**31`` included — so that variant keeps its levels in the
    ``claimed`` dict, which holds them exactly.  Parents live in one
    shared ``array('i')`` arena addressed by per-node (start, length)
    cursors.  Nothing reaches the network's node columns until
    :meth:`install`, which hands them the arena.
    """

    __slots__ = ("ids", "waiting", "depth_bound", "multipath", "hopcount",
                 "level", "claimed", "parents_arena", "parents_start",
                 "parents_len", "pending", "accepted")

    def __init__(self, network, phase, ids, variant: str) -> None:
        super().__init__(network, phase)
        num_ids = network.topology.num_nodes
        self.ids = ids
        # Hosted sensors without a level yet: the only ones a beacon
        # can still change.
        self.waiting = set(ids)
        self.depth_bound = phase.num_intervals
        self.multipath = network.config.network.multipath
        self.hopcount = variant == "hopcount"
        self.level = None if self.hopcount else np.full(num_ids, -1, dtype=np.int32)
        self.claimed: Dict[int, int] = {}
        self.parents_arena = array("i")
        self.parents_start = np.zeros(num_ids, dtype=np.int64)
        self.parents_len = np.zeros(num_ids, dtype=np.int32)
        # (sensor, hop count to forward) for sensors that accepted this
        # interval and forward in the next, appended in ascending
        # arrival-visit order (= next interval's send order).
        self.pending: List[Tuple[int, int]] = []
        # Sensors that accepted since the last report().
        self.accepted: List[int] = []

    def tick(self, k: int) -> None:
        """Sensors scheduled last interval forward now."""
        pending, self.pending = self.pending, []
        if pending:
            self.phase.broadcast(
                [node_id for node_id, _ in pending],
                [TreeBeacon(origin=node_id, hop_count=hop) for node_id, hop in pending],
                k,
            )

    def deliver(self, k: int) -> None:
        """Waiting sensors accept this interval's verified beacons.

        One sweep over the interval's rows collects each waiting
        sensor's beacon batches in its inbox order; the sensors then
        accept in ascending id order — which is also the forward
        schedule's, and hence next interval's send order.
        """
        waiting = self.waiting
        if not waiting:
            return
        receivers, batch_ids, batches, _, verdicts = self.phase.rows(k)
        heard: Dict[int, list] = {}
        for row, receiver in enumerate(receivers):
            if receiver in waiting and verdicts[row]:
                batch = batches[batch_ids[row]]
                if isinstance(batch.payload, TreeBeacon):
                    heard.setdefault(receiver, []).append(batch)
        for node_id in sorted(heard):
            self.accept(node_id, heard[node_id], k)

    def _set(self, node_id: int, level: int, parents: List[int]) -> None:
        if self.hopcount:
            self.claimed[node_id] = level
        else:
            self.level[node_id] = level
        self.parents_start[node_id] = len(self.parents_arena)
        self.parents_len[node_id] = len(parents)
        self.parents_arena.extend(parents)

    def accept(self, node_id: int, beacons, interval: int) -> None:
        """A waiting sensor's verified beacon batches of ``interval``, in
        inbox order: the first interval that brings any sets its level.

        A sensor is visited at most once per interval and leaves
        ``waiting`` here, so the timestamp rule's same-interval
        extra-parents case is unreachable.
        """
        self.waiting.discard(node_id)
        if self.hopcount:
            # The naive rule: level = the first beacon's claimed hop
            # count, forwarded as ``claimed + 1`` whether or not it is a
            # valid level (the victim learns L was exceeded only when it
            # tries to pick a slot — Figure 2(c)).
            level = beacons[0].payload.hop_count
            forward = level + 1
            if self.multipath:
                parents = sorted(
                    {b.claimed_sender for b in beacons if b.payload.hop_count == level}
                )
            else:
                parents = [beacons[0].claimed_sender]
        else:
            level = interval
            forward = interval + 1 if interval + 1 <= self.depth_bound else None
            if self.multipath:
                parents = sorted({b.claimed_sender for b in beacons})
            else:
                parents = [beacons[0].claimed_sender]
        self._set(node_id, level, parents)
        self.accepted.append(node_id)
        if forward is not None:
            self.pending.append((node_id, forward))

    def _entry(self, node_id: int) -> Tuple[Optional[int], List[int]]:
        """A sensor's (level or ``None``, parents)."""
        if self.hopcount:
            lv = self.claimed.get(node_id)
        else:
            lv = int(self.level[node_id])
            lv = None if lv == -1 else lv
        if lv is None:
            return None, []
        begin = int(self.parents_start[node_id])
        return lv, self.parents_arena[begin:begin + int(self.parents_len[node_id])].tolist()

    def report(self) -> tuple:
        """``(sensor, level, parents)`` per sensor accepted since the
        last report."""
        rows = []
        for node_id in self.accepted:
            level, parents = self._entry(node_id)
            rows.append((node_id, level, tuple(parents)))
        self.accepted = []
        return tuple(rows)

    def absorb(self, rows) -> None:
        for node_id, level, parents in rows:
            self._set(node_id, level, list(parents))

    def finish(self) -> None:
        self.install(self.ids)

    def install(self, honest_ids, result: Optional[TreeFormationResult] = None) -> None:
        """Write levels and forward flags into the node columns, hand
        them the parents arena (and fill ``result``).

        A level outside ``[1, depth_bound]`` (possible only under the
        hop-count baseline) leaves the sensor without a slot: it is
        reported invalid and keeps no level or parents.
        """
        columns = self.network.node_columns
        depth_bound = self.depth_bound
        for node_id in honest_ids:
            lv, parents = self._entry(node_id)
            columns.forwarded_beacon[node_id] = lv is not None and (
                self.hopcount or lv + 1 <= depth_bound
            )
            if lv is not None and 1 <= lv <= depth_bound:
                columns.level[node_id] = lv
                if result is not None:
                    result.levels[node_id] = lv
                    result.parents[node_id] = parents
            else:
                if result is not None:
                    result.invalid_level_sensors.add(node_id)
                columns.level[node_id] = NO_LEVEL
                self.parents_len[node_id] = 0
        columns.parents_arena = self.parents_arena
        columns.parents_start = self.parents_start
        columns.parents_len = self.parents_len


def form_tree(
    network: Network,
    adversary,
    depth_bound: int,
    variant: str = "timestamp",
) -> TreeFormationResult:
    """Run one tree-formation phase and install levels and parents in the
    node columns.

    ``adversary`` may be ``None`` (no malicious sensors act) or an
    :class:`~repro.adversary.base.Adversary`, whose ``tree_interval``
    hook runs for every malicious sensor in every interval.
    """
    if variant not in ("timestamp", "hopcount"):
        raise ProtocolError(f"unknown tree variant {variant!r}")

    # The start announcement itself (authenticated broadcast) prevents
    # adversary-initiated tree formations (Section IV-A).
    network.authenticated_flood("tree-formation", variant, depth_bound)

    phase = network.new_phase("tree", depth_bound)
    ctx = TreeContext(
        network=network, phase=phase, depth_bound=depth_bound, variant=variant
    )
    result = TreeFormationResult(variant=variant)

    columns = network.node_columns
    columns.level[:] = NO_LEVEL
    columns.parents_len[:] = 0
    columns.forwarded_beacon[:] = False

    honest_ids = network.honest_ids
    cols = honest_step(network, phase, TreeColumns, honest_ids, variant)

    for k in phase.intervals():
        # 1. Base station seeds the flood in interval 1.
        if k == 1:
            beacon = TreeBeacon(origin=BASE_STATION_ID, hop_count=1)
            phase.send(
                BASE_STATION_ID,
                network.secure_neighbors(BASE_STATION_ID),
                beacon,
                interval=1,
            )

        # 2. Honest sensors scheduled last interval forward now.
        cols.tick(k)

        # 3. Malicious sensors act (inject, tunnel, replay, stay silent).
        if adversary is not None:
            for node_id in sorted(network.malicious_ids):
                adversary.tree_interval(ctx, node_id, k)

        # 4. Honest sensors process this interval's arrivals.
        cols.deliver(k)

    cols.install(honest_ids, result)
    return result
