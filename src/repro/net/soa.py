"""The column frame store behind :class:`~repro.net.network.PhaseContext`.

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
  inbox order), so reads group the receiver column with a *stable*
  argsort — within one receiver the original deposit order is preserved
  exactly.
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

**One write per send.**  :meth:`SoATransport.deposit_send` appends the
rows of one :meth:`~repro.net.network.PhaseContext.send` with one
``extend`` per column when they fall in one region (always, for a
single-region store), row by row into their regions otherwise.

The verdict column holds the transmit-time precheck outcome: true rows
materialize with ``verified=None`` (the lazy path — resolves ``True``
unless an adversary materializes the MAC first) and false rows with
``verified=False``.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Mapping
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..perf.shard import delivery_region_geometry

#: Shared empty arrival map (never mutated; see ``arrivals``).
_EMPTY_ARRIVALS: Mapping = {}


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
        batch_id: int,
        verdicts: Sequence[bool],
    ) -> None:
        self.receivers.extend(receivers)
        self.keys.extend(key_indices)
        self.batch_ids.extend([batch_id] * len(receivers))
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
    (``frames``/``arrivals``) over column deposits."""

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
    def deposit_send(
        self,
        interval: int,
        batch: object,
        receivers: Sequence[int],
        key_indices: Sequence[int],
        verdicts: Sequence[bool],
    ) -> None:
        """Record one send's frames without constructing a ``Delivery``."""
        store = self._stores.get(interval)
        if store is None:
            store = self._stores[interval] = _IntervalStore(
                self._region_size, self._num_regions
            )
        batch_id = len(self._batches)
        self._batches.append(batch)
        width = store.region_size
        region = receivers[0] // width
        if store.num_regions == 1 or all(r // width == region for r in receivers):
            store.columns_for(receivers[0]).extend(receivers, key_indices, batch_id, verdicts)
        else:
            for receiver, key_index, verdict in zip(receivers, key_indices, verdicts):
                store.columns_for(receiver).extend((receiver,), (key_index,), batch_id, (verdict,))
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

    def arrivals(self, interval: int) -> Mapping:
        store = self._stores.get(interval)
        if store is None or not store.total_rows:
            return _EMPTY_ARRIVALS
        return _SoAArrivals(self, interval, store)


class _SoAArrivals(Mapping):
    """Read-only ``receiver -> frames`` view over one interval store.

    Iteration is ascending by receiver id: regions are ascending
    contiguous id ranges, so walking regions in order and sorting within
    each yields the global sorted order.  Keys are normalized with
    ``operator.index``, so any integer type (``numpy.int64`` included)
    finds its receiver and anything else is simply absent.
    ``__getitem__`` materializes frames on demand.
    """

    __slots__ = ("_transport", "_interval", "_store")

    def __init__(self, transport: SoATransport, interval: int, store: _IntervalStore) -> None:
        self._transport = transport
        self._interval = interval
        self._store = store

    def _rows(self, receiver: object):
        """``(receiver, columns, rows)`` for a receiver with frames, else
        ``None``."""
        try:
            receiver = operator.index(receiver)
        except TypeError:
            return None
        if not 0 <= receiver < self._store.region_size * self._store.num_regions:
            return None
        columns = self._store.peek_columns(receiver)
        if columns is None:
            return None
        rows = columns.groups().get(receiver)
        return None if rows is None else (receiver, columns, rows)

    def __getitem__(self, receiver: int) -> List[object]:
        found = self._rows(receiver)
        if found is None:
            raise KeyError(receiver)
        receiver, columns, rows = found
        return self._transport._materialize(columns, rows, receiver, self._interval)

    def __contains__(self, receiver: object) -> bool:
        return self._rows(receiver) is not None

    def __iter__(self) -> Iterator[int]:
        for columns in self._store.region_iter():
            yield from sorted(columns.groups())

    def __len__(self) -> int:
        return sum(len(c.groups()) for c in self._store.region_iter())
