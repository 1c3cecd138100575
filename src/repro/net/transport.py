"""Frame-store transports behind :class:`~repro.net.network.PhaseContext`.

:class:`SimTransport` is a plain per-interval, per-receiver list of
:class:`~repro.net.network.Delivery` frames, for a runtime that
substitutes its own transport through ``Network.transport_factory``.
The service coordinator (:mod:`repro.service`) builds on it: its
mirror holds ``Delivery`` objects decoded off the wire, one at a time,
and additionally queues frames for hosted sensors for shipment to their
node hosts.  Every process runs the same honest phase steps
(:mod:`repro.core.phase_state`) over whichever store it has.  Inline
runs use the column store (:class:`~repro.net.soa.SoATransport`), which
holds send batches and presents frames in the same per-receiver order.

Transport contract (what ``PhaseContext`` relies on):

* ``deposit_send(interval, batch, receivers, key_indices, verdicts)``
  appends the frames of one ``PhaseContext.send``: row ``i`` is a frame
  of ``batch`` (the broadcast's shared :class:`~repro.net.network._SendBatch`)
  for ``receivers[i]`` under edge key ``key_indices[i]``, with
  transmit-time verdict ``verdicts[i]`` (true: accepted pending the MAC,
  false: rejected).  A fault-injected duplicate is a repeated row right
  after its original.  Deposit order **is** protocol semantics: honest
  logic adopts the first verified beacon/veto in inbox order, so a
  transport must present frames in exactly the order of these rows,
  send after send.
* ``frames(interval, receiver)`` returns a fresh list of that inbox (the
  caller may filter/slice it freely).
* ``arrivals(interval)`` returns a read-only mapping
  ``receiver -> frames`` for cheap emptiness tests; callers treat it as
  frozen.

:class:`SimTransport` implements ``deposit_send`` as one
``deposit(interval, receiver, delivery)`` per row, its per-frame
primitive: the service transports override ``deposit`` to ship each
frame between processes.

The readability gates (an inbox is visible only once its interval has
begun) stay in ``PhaseContext`` — transports store and order frames,
they do not police phase time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .network import Delivery

#: Shared empty arrival map (never mutated; see ``arrivals``).
_EMPTY_ARRIVALS: Dict[int, List["Delivery"]] = {}

#: Resolved lazily to dodge the import cycle (network.py imports the
#: transports at load time).
_DELIVERY = None


def _delivery_class():
    global _DELIVERY
    if _DELIVERY is None:
        from .network import Delivery

        _DELIVERY = Delivery
    return _DELIVERY


class SimTransport:
    """In-process per-receiver list frame store (service transports
    build on it).

    Frames are kept exactly where :meth:`deposit` put them, in call
    order — chronological send order, which downstream acceptance loops
    depend on.
    """

    __slots__ = ("_pending",)

    def __init__(self) -> None:
        self._pending: Dict[int, Dict[int, List["Delivery"]]] = defaultdict(
            lambda: defaultdict(list)
        )

    def deposit(self, interval: int, receiver: int, delivery: "Delivery") -> None:
        self._pending[interval][receiver].append(delivery)

    def deposit_send(
        self,
        interval: int,
        batch: object,
        receivers: Sequence[int],
        key_indices: Sequence[int],
        verdicts: Sequence[bool],
    ) -> None:
        delivery = _delivery_class()
        for receiver, key_index, verdict in zip(receivers, key_indices, verdicts):
            frame = delivery(
                batch, receiver, key_index, interval, verified=None if verdict else False
            )
            self.deposit(interval, receiver, frame)

    def frames(self, interval: int, receiver: int) -> List["Delivery"]:
        return list(self._pending.get(interval, {}).get(receiver, ()))

    def arrivals(self, interval: int) -> Mapping[int, Sequence["Delivery"]]:
        return self._pending.get(interval) or _EMPTY_ARRIVALS
