"""The column frame store behind :class:`~repro.net.network.PhaseContext`.

Transport contract (what ``PhaseContext`` relies on):

* ``deposit(interval, batches, counts, receivers, key_indices, verdicts)``
  appends one block of frames: ``batches[j]`` (a broadcast's shared
  :class:`~repro.net.network._SendBatch`) owns the next ``counts[j]``
  rows, and row ``i`` is a frame for ``receivers[i]`` under edge key
  ``key_indices[i]`` with transmit-time verdict ``verdicts[i]`` (true:
  accepted pending the MAC, false: rejected).  One ``PhaseContext.send``
  is a one-batch block; ``PhaseContext.broadcast`` deposits every
  sender of an interval in one block.  A fault-injected duplicate is a
  repeated row right after its original.  Deposit order **is** protocol
  semantics: honest logic adopts the first verified beacon/veto (or the
  first hash-valid predicate reply) in inbox order, so a transport must
  keep each receiver's frames in exactly the order of these rows,
  block after block.
* ``rows(interval)`` returns a fresh snapshot of the whole interval as
  ``(receivers, batch_ids, batches, key_indices, verdicts)``: row ``i``
  carries ``batches[batch_ids[i]]`` to ``receivers[i]`` under edge key
  ``key_indices[i]``, and ``verdicts[i]`` is what that frame's
  ``Delivery.verified`` reads.  Each receiver's rows are in its deposit
  order.  This is the one read: honest steps sweep each interval they
  listen in through it, and ``PhaseContext.inbox`` selects one
  receiver's rows out of it.

The readability gates (an interval is visible only once it has begun)
stay in ``PhaseContext`` — transports store and order frames, they do
not police phase time.

:class:`SoATransport` is the one store.  Every inline run uses it, and
the service coordinator's mirror (:mod:`repro.service.runtime`)
subclasses it: frames decoded off the wire go in as ordinary rows.  A
node host substitutes its own envelope-sorted buckets through
``Network.transport_factory``.  The store keeps four flat append-only
columns per interval (receiver id, edge-key index, batch index,
transmit-time verdict) plus one shared list of :class:`_SendBatch`
objects — not one Python list of ``Delivery`` objects per receiver,
which at 100k nodes is hundreds of thousands of lists and millions of
object headers per phase.  A block is appended with one ``extend`` per
column, so the columns are in deposit order and every receiver's rows
with them.

The store builds no ``Delivery``.  Honest logic and audit records
consume frame *values* (sender, payload, key, verdict), never object
identity, so ``inbox`` builds fresh ones per read.  That also keeps the
store free of reference cycles, which matters under the bench harness's
``gc.disable()`` windows: nothing here retains a ``Delivery``, and a
batch holds the network rather than the phase, so frames die by
refcount as soon as the caller drops them and a finished phase dies
with its store.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Sequence, Tuple


def block_rows(
    batches: Sequence[object],
    counts: Sequence[int],
    receivers: Sequence[int],
    key_indices: Sequence[int],
    verdicts: Sequence[bool],
) -> Iterator[Tuple[object, int, int, bool]]:
    """``(batch, receiver, key index, verdict)`` per row of a deposit
    block, in row order: the row loop of the stores that keep frames
    one by one."""
    stop = 0
    for batch, count in zip(batches, counts):
        start, stop = stop, stop + count
        for row in range(start, stop):
            yield batch, receivers[row], key_indices[row], verdicts[row]


class SoATransport:
    """Column frame store: four flat append-only columns per interval,
    read back whole by :meth:`rows`."""

    __slots__ = ("_columns", "_batches")

    def __init__(self) -> None:
        # interval -> (receivers, batch ids, key indices, verdicts)
        self._columns: Dict[int, Tuple[array, array, array, array]] = {}
        self._batches: List[object] = []

    def deposit(
        self,
        interval: int,
        batches: Sequence[object],
        counts: Sequence[int],
        receivers: Sequence[int],
        key_indices: Sequence[int],
        verdicts: Sequence[bool],
    ) -> None:
        """Append one block of frames without constructing a ``Delivery``."""
        columns = self._columns.get(interval)
        if columns is None:
            columns = self._columns[interval] = (
                array("i"), array("i"), array("i"), array("b")
            )
        base = len(self._batches)
        self._batches.extend(batches)
        batch_ids = array("i")
        for offset, count in enumerate(counts):
            batch_ids += array("i", (base + offset,)) * count
        columns[0].extend(receivers)
        columns[1].extend(batch_ids)
        columns[2].extend(key_indices)
        columns[3].extend(verdicts)

    def rows(self, interval: int) -> Tuple[array, array, List[object], array, array]:
        columns = self._columns.get(interval)
        if columns is None:
            return array("i"), array("i"), self._batches, array("i"), array("b")
        receivers, batch_ids, key_indices, verdicts = columns
        # Copies: a caller may hold the snapshot (or a numpy view of it)
        # while later deposits extend the live columns.
        return receivers[:], batch_ids[:], self._batches, key_indices[:], verdicts[:]
