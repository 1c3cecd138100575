"""Struct-of-arrays state for the interval hot loops.

The phase loops in :mod:`repro.core.tree`, :mod:`repro.core.aggregation`
and :mod:`repro.core.confirmation` keep per-node phase state as flat
columns instead of per-node Python containers (at 100k nodes those
containers dominated the interval loop's allocation churn):

* :class:`TreeColumns` — the level column, parents in a shared
  ``array('i')`` arena addressed by per-node (start, length) cursors,
  the forward schedule as a plain list; both tree variants (the
  timestamp rule and the hop-count baseline) run on it;
* :class:`SlotSchedule` — participants grouped by level with one stable
  argsort, best-so-far rows addressed positionally;
* :class:`VetoSchedule` — forwarded flags as one boolean array, the
  pending vetoes as parallel lists.

**Order contract.**  Every column structure fixes the visit and send
orders the protocol's output depends on: stable argsort grouping keeps
ascending participant order within a level group, and the append-only
schedules are filled while visiting arrivals in ascending id order, so
they drain in ascending order too.  ``tests/test_kernel_digests.py``
freezes the resulting output per cell.

**One kernel.**  Every inline run uses these columns — honest or
attacked, traced or not, caches on or off.  Adversary hooks never touch
the columns: malicious state lives in per-node
:class:`~repro.adversary.base.MaliciousNodeState` rows and every
injection goes through the shared transport.  Only a service driver
(node state lives on host processes) runs a phase's honest side through
the per-node helpers instead.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

import numpy as np

from ..errors import ProtocolError

_EMPTY: Tuple[int, ...] = ()


def node_id_bound(network) -> int:
    """One past the largest sensor id (array sizing; BS is id 0)."""
    return max(network.nodes) + 1 if network.nodes else 1


class TreeColumns:
    """Tree-formation state: levels + parents arena + forward schedule.

    Timestamp levels are accept intervals, always in ``[1, depth_bound]``,
    so they live in one ``int32`` column (``-1`` = no level yet).  The
    hop-count baseline instead adopts whatever hop count the first
    beacon *claims* — any integer a forged beacon carries, negative or
    past ``2**31`` included — so that variant keeps its levels in the
    ``claimed`` dict, which holds them exactly.
    """

    __slots__ = ("depth_bound", "multipath", "hopcount", "level", "claimed",
                 "parents_arena", "parents_start", "parents_len", "pending")

    def __init__(
        self, num_ids: int, depth_bound: int, multipath: bool, hopcount: bool = False
    ) -> None:
        self.depth_bound = depth_bound
        self.multipath = multipath
        self.hopcount = hopcount
        self.level = None if hopcount else np.full(num_ids, -1, dtype=np.int32)
        self.claimed: Dict[int, int] = {}
        self.parents_arena = array("i")
        self.parents_start = np.zeros(num_ids, dtype=np.int64)
        self.parents_len = np.zeros(num_ids, dtype=np.int32)
        # (sensor, hop count to forward) for sensors that accepted this
        # interval and forward in the next, appended in ascending
        # arrival-visit order (= next interval's send order).
        self.pending: List[Tuple[int, int]] = []

    def _set_parents(self, node_id: int, parents: List[int]) -> None:
        self.parents_start[node_id] = len(self.parents_arena)
        self.parents_len[node_id] = len(parents)
        self.parents_arena.extend(parents)

    def accept(self, node_id: int, beacons, interval: int) -> None:
        """One sensor's verified beacons of ``interval``, first visit wins.

        A node is visited at most once per interval, so a set level
        always means "ignore" — including the timestamp rule's
        same-interval extra-parents case, which is unreachable.
        """
        if self.hopcount:
            self._accept_hopcount(node_id, beacons)
            return
        if self.level[node_id] != -1:
            return
        self.level[node_id] = interval
        if self.multipath:
            parents = sorted({d.sender for d in beacons})
        else:
            parents = [beacons[0].sender]
        self._set_parents(node_id, parents)
        if interval + 1 <= self.depth_bound:
            self.pending.append((node_id, interval + 1))

    def _accept_hopcount(self, node_id: int, beacons) -> None:
        """The naive rule (:func:`repro.core.tree._accept_hopcount`):
        level = the first beacon's claimed hop count, forwarded as
        ``claimed + 1`` whether or not it is a valid level."""
        if node_id in self.claimed:
            return
        first = beacons[0]
        claimed = first.payload.hop_count
        self.claimed[node_id] = claimed
        if self.multipath:
            parents = sorted(
                {d.sender for d in beacons if d.payload.hop_count == claimed}
            )
        else:
            parents = [first.sender]
        self._set_parents(node_id, parents)
        self.pending.append((node_id, claimed + 1))

    def take_pending(self) -> List[Tuple[int, int]]:
        """Drain the forward schedule."""
        pending = self.pending
        self.pending = []
        return pending

    def install(self, network, honest_ids, result) -> None:
        """Write levels/parents back onto nodes and into ``result``.

        A level outside ``[1, depth_bound]`` (possible only under the
        hop-count baseline) leaves the sensor without a slot: it is
        reported invalid and keeps no level or parents.
        """
        arena = self.parents_arena
        start = self.parents_start
        length = self.parents_len
        depth_bound = self.depth_bound
        for node_id in honest_ids:
            node = network.nodes[node_id]
            if self.hopcount:
                lv = self.claimed.get(node_id)
                node.forwarded_beacon = lv is not None
            else:
                lv = int(self.level[node_id])
                lv = None if lv == -1 else lv
                node.forwarded_beacon = lv is not None and lv + 1 <= depth_bound
            if lv is not None and 1 <= lv <= depth_bound:
                begin = int(start[node_id])
                parents = arena[begin:begin + int(length[node_id])].tolist()
                node.level = lv
                node.parents = parents
                result.levels[node_id] = lv
                result.parents[node_id] = list(parents)
            else:
                result.invalid_level_sensors.add(node_id)
                node.level = None
                node.parents = []


class SlotSchedule:
    """Aggregation slots: participants grouped by level via stable argsort.

    ``ids`` keeps participants as Python ints (deployment order, i.e.
    ascending); ``best`` holds each participant's best-so-far messages
    addressed by position.  A level group's positions ascend with
    participant order, so every slot sends and listens in ascending id
    order.
    """

    __slots__ = ("ids", "best", "_groups")

    def __init__(self, network, participants, depth_bound, own_messages,
                 num_instances) -> None:
        self.ids: List[int] = list(participants)
        self.best: List[List[object]] = []
        count = len(self.ids)
        levels = np.fromiter(
            (network.nodes[i].level for i in self.ids), dtype=np.int32, count=count
        )
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

    def send_positions(self, interval: int, depth_bound: int):
        """Positions transmitting in ``interval`` (level ``L - k + 1``)."""
        return self._groups.get(depth_bound - interval + 1, _EMPTY)

    def listen_positions(self, interval: int, depth_bound: int):
        """Positions listening in ``interval`` (level ``L - k``; level 0
        does not exist, so interval ``L`` naturally has no listeners)."""
        return self._groups.get(depth_bound - interval, _EMPTY)


class VetoSchedule:
    """SOF state: forwarded flags as one bool column + pending lists.

    The pending lists drain in ascending id order for free: the initial
    vetoer scan and each interval's arrival scan both visit ascending
    ids, and the schedule is fully drained every interval, so appends
    are always already sorted.
    """

    __slots__ = ("forwarded", "_ids", "_vetoes")

    def __init__(self, num_ids: int) -> None:
        self.forwarded = np.zeros(num_ids, dtype=bool)
        self._ids: List[int] = []
        self._vetoes: List[object] = []

    def schedule(self, node_id: int, veto) -> None:
        self.forwarded[node_id] = True
        self._ids.append(node_id)
        self._vetoes.append(veto)

    def drain(self):
        """Yield and clear this interval's (node_id, veto) schedule."""
        pairs = list(zip(self._ids, self._vetoes))
        self._ids.clear()
        self._vetoes.clear()
        return pairs
