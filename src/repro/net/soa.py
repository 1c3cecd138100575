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
  present frames in exactly the order of these rows, block after block.
* ``frames(interval, receiver)`` returns a fresh list of that inbox (the
  caller may filter/slice it freely).
* ``rows(interval)`` returns the whole interval as ``(receivers,
  batch_ids, batches, key_indices, verdicts)``: row ``i`` carries
  ``batches[batch_ids[i]]`` to ``receivers[i]`` under edge key
  ``key_indices[i]``, and ``verdicts[i]`` is what that frame's
  ``Delivery.verified`` reads.  Each receiver's rows are its
  ``frames`` in the same order.  It builds no ``Delivery``: every
  honest step sweeps each interval it listens in through it once.

The readability gates (an inbox is visible only once its interval has
begun) stay in ``PhaseContext`` — transports store and order frames,
they do not police phase time.

:class:`SoATransport` is the one store.  Every inline run uses it, and
the service coordinator's mirror (:mod:`repro.service.runtime`)
subclasses it: frames decoded off the wire go in as ordinary rows.  A
node host substitutes its own envelope-sorted buckets through
``Network.transport_factory``.  The store keeps four flat append-only
columns per interval (receiver id, edge-key index, batch index,
transmit-time verdict) plus one shared list of :class:`_SendBatch`
objects — not one Python list of ``Delivery`` objects per receiver,
which at 100k nodes is hundreds of thousands of lists and millions of
object headers per phase — and materializes ``Delivery`` objects *per
read*:

* **Deposit order is protocol semantics** (first verified beacon/veto in
  inbox order), so ``frames`` groups the receiver column with a
  *stable* argsort — within one receiver the original deposit order is
  preserved exactly — and ``rows`` hands out the columns unsorted,
  region by region, which keeps every receiver's rows in deposit order.
* **Reads return fresh objects.**  Honest logic and audit records
  consume frame *values* (sender, payload, key, verdict), never object
  identity, so materializing a frame twice is indistinguishable from
  reading the same object twice.  Fresh objects also keep the store
  free of reference cycles, which matters under the bench harness's
  ``gc.disable()`` windows: nothing here retains a ``Delivery``, and a
  batch holds the network rather than the phase, so frames die by
  refcount as soon as the caller drops them and a finished phase dies
  with its store.

**Sharded delivery fanout.**  Above
:data:`~repro.perf.shard.DELIVERY_REGION_MIN_IDS` ids, each interval's
columns are partitioned by *receiver region* — the same contiguous id
ranges :func:`repro.perf.shard.regions` hands the build-time fork
workers, applied in-process to the deposit/group/deliver pass.  Every
receiver maps to exactly one region, so the per-region stable argsort
preserves the per-receiver deposit-order contract verbatim, and regions
are ascending id ranges, so region-order iteration is globally sorted.
The win is incremental regrouping: an append dirties only its region,
so the next read re-sorts one region's columns instead of the whole
interval's (at 1M nodes the difference between re-sorting ~60k and ~1M
rows every time the adversary injects mid-interval).  The geometry must
cover every id below the transport's ``num_ids`` (every node id of the
topology); a receiver outside it is an error, not something a region
silently absorbs.

**One write per block.**  :meth:`SoATransport.deposit` appends a block
with one ``extend`` per column when its rows fall in one region
(always, for a single-region store), row by row into their regions
otherwise.

The verdict column holds the transmit-time precheck outcome: true rows
materialize with ``verified=None`` (the lazy path — resolves ``True``
unless an adversary materializes the MAC first) and false rows with
``verified=False``.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..perf.shard import delivery_region_geometry


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


class _RegionColumns:
    """Append-only frame columns for one receiver region of one interval."""

    __slots__ = ("receivers", "keys", "batch_ids", "verdicts",
                 "_groups", "_grouped_rows")

    def __init__(self) -> None:
        self.receivers = array("i")
        self.keys = array("i")
        self.batch_ids = array("i")
        self.verdicts = array("b")
        # receiver -> row positions (deposit order), rebuilt whenever a
        # read finds rows appended since the last grouping.
        self._groups: Optional[Dict[int, np.ndarray]] = None
        self._grouped_rows = -1

    def extend(
        self,
        receivers: Sequence[int],
        key_indices: Sequence[int],
        batch_ids: Sequence[int],
        verdicts: Sequence[bool],
    ) -> None:
        self.receivers.extend(receivers)
        self.keys.extend(key_indices)
        self.batch_ids.extend(batch_ids)
        self.verdicts.extend(verdicts)

    def groups(self) -> Dict[int, np.ndarray]:
        count = len(self.receivers)
        if self._groups is not None and self._grouped_rows == count:
            return self._groups
        # ``tobytes`` copies out of the growable buffer so later appends
        # never fight numpy's buffer-export lock.
        recv = np.frombuffer(self.receivers.tobytes(), dtype=np.int32)
        order = np.argsort(recv, kind="stable")
        sorted_recv = recv[order]
        uniques, starts = np.unique(sorted_recv, return_index=True)
        groups: Dict[int, np.ndarray] = {}
        bounds = starts.tolist() + [count]
        for position, receiver in enumerate(uniques.tolist()):
            groups[int(receiver)] = order[bounds[position]:bounds[position + 1]]
        self._groups = groups
        self._grouped_rows = count
        return groups


class _IntervalStore:
    """One interval's frames, partitioned into receiver regions.

    Regions are contiguous ``region_size``-wide id ranges covering the
    transport's id space.  A single-region geometry degenerates to the
    unpartitioned store.
    """

    __slots__ = ("region_size", "num_regions", "_regions", "total_rows")

    def __init__(self, region_size: int, num_regions: int) -> None:
        self.region_size = region_size
        self.num_regions = num_regions
        self._regions: List[Optional[_RegionColumns]] = [None] * num_regions
        self.total_rows = 0

    def columns_for(self, receiver: int) -> _RegionColumns:
        """The (created-on-demand) region columns owning ``receiver``."""
        index = receiver // self.region_size
        columns = self._regions[index]
        if columns is None:
            columns = self._regions[index] = _RegionColumns()
        return columns

    def peek_columns(self, receiver: int) -> Optional[_RegionColumns]:
        """Like :meth:`columns_for` but ``None`` when the region is empty."""
        return self._regions[receiver // self.region_size]

    def region_iter(self) -> Iterator[_RegionColumns]:
        """Non-empty regions in ascending id-range order."""
        for columns in self._regions:
            if columns is not None:
                yield columns


class SoATransport:
    """Column frame store: the transport contract's reads
    (``frames``/``rows``) over column deposits."""

    __slots__ = ("_stores", "_batches", "_region_size", "_num_regions", "_delivery")

    def __init__(self, num_ids: int) -> None:
        from .network import Delivery  # network.py imports this module at load

        self._delivery = Delivery
        self._stores: Dict[int, _IntervalStore] = {}
        self._batches: List[object] = []
        self._region_size, self._num_regions = delivery_region_geometry(num_ids)

    # ------------------------------------------------------------------
    # Deposits
    # ------------------------------------------------------------------
    def deposit(
        self,
        interval: int,
        batches: Sequence[object],
        counts: Sequence[int],
        receivers: Sequence[int],
        key_indices: Sequence[int],
        verdicts: Sequence[bool],
    ) -> None:
        """Record one block of frames without constructing a ``Delivery``."""
        store = self._stores.get(interval)
        if store is None:
            store = self._stores[interval] = _IntervalStore(
                self._region_size, self._num_regions
            )
        base = len(self._batches)
        self._batches.extend(batches)
        batch_ids = array("i")
        for offset, count in enumerate(counts):
            batch_ids += array("i", (base + offset,)) * count
        width = store.region_size
        region = receivers[0] // width
        if store.num_regions == 1 or all(r // width == region for r in receivers):
            store.columns_for(receivers[0]).extend(receivers, key_indices, batch_ids, verdicts)
        else:
            for receiver, key_index, batch_id, verdict in zip(
                receivers, key_indices, batch_ids, verdicts
            ):
                store.columns_for(receiver).extend(
                    (receiver,), (key_index,), (batch_id,), (verdict,)
                )
        store.total_rows += len(receivers)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def frames(self, interval: int, receiver: int) -> List[object]:
        store = self._stores.get(interval)
        if store is None:
            return []
        columns = store.peek_columns(receiver)
        if columns is None:
            return []
        rows = columns.groups().get(receiver)
        if rows is None:
            return []
        return self._materialize(columns, rows, receiver, interval)

    def _materialize(
        self, columns: _RegionColumns, rows: np.ndarray, receiver: int, interval: int
    ) -> List[object]:
        delivery_cls = self._delivery
        batches = self._batches
        keys = columns.keys
        batch_ids = columns.batch_ids
        verdicts = columns.verdicts
        out: List[object] = []
        for position in rows.tolist():
            out.append(
                delivery_cls(
                    batches[batch_ids[position]],
                    receiver,
                    keys[position],
                    interval,
                    verified=None if verdicts[position] else False,
                )
            )
        return out

    def rows(self, interval: int) -> Tuple[array, array, List[object], array, array]:
        receivers, batch_ids = array("i"), array("i")
        key_indices, verdicts = array("i"), array("b")
        store = self._stores.get(interval)
        if store is not None:
            for columns in store.region_iter():
                receivers += columns.receivers
                batch_ids += columns.batch_ids
                key_indices += columns.keys
                verdicts += columns.verdicts
        return receivers, batch_ids, self._batches, key_indices, verdicts
