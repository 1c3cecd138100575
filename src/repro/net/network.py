"""The slotted sensor network.

This module glues topology, keys, clocks and metrics into the execution
substrate for VMAT's interval-slotted phases:

* **Secure links.**  A radio edge is usable when both endpoints are
  unrevoked and still share a non-revoked pool key (the *edge key*).
  Revocations immediately reshape the secure topology.
* **Phases.**  A :class:`PhaseContext` runs ``num_intervals`` slots.
  Payloads sent in interval ``k`` are received in interval ``k`` (the
  guard-band property of Section IV-A); receivers act on them from
  interval ``k + 1``.
* **Edge MACs.**  Every transmission carries a real HMAC under the edge
  key.  Honest receivers drop frames whose MAC fails or whose key they
  do not hold — adversarial injection is possible exactly on the keys
  the adversary actually holds, as in the paper's model.
* **Capacity.**  A sensor can originate at most
  ``forwarding_capacity`` distinct payloads per interval (each reaching
  any subset of neighbours).  This is the resource choking attacks
  exhaust; VMAT's honest senders use at most one payload per interval
  and never feel it.
* **Authenticated broadcast.**  ``authenticated_flood`` delivers a
  base-station message to every honest sensor through the μTESLA-style
  verifier, charging one flooding round — the service [20] provides.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import repeat
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..config import ExperimentConfig
from ..crypto.authenticated_broadcast import BroadcastAuthority, check_disclosure
from ..crypto.encoding import encode_parts
from ..crypto.mac import compute_mac_message, verify_mac_message
from ..errors import NetworkError, ProtocolError
from ..keys.registry import BASE_STATION_ID, KeyRegistry
from ..metrics import Metrics
from ..seeding import derive_rng
from ..sim.clock import ClockAssignment
from ..topology.graph import Topology
from ..core.node_columns import NodeColumns
from .message import MAC_BYTES, Payload
from .node import AuditLog
from .soa import SoATransport

EDGE_KEY_INDEX_BYTES = 2

#: Cached canonical encoding of the edge-MAC domain tag.  Encodings are
#: concatenative (``encode_parts(*p)`` is the join of each field's
#: encoding), so stitching cached static prefixes to per-frame fields
#: reproduces ``encode_parts("edge", sender, receiver, phase, interval,
#: payload_bytes)`` byte-for-byte.
_EDGE_TAG_ENCODED = encode_parts("edge")


def _edge_mac_message(
    claimed_sender: int,
    receiver: int,
    phase_name_encoded: bytes,
    interval: int,
    payload_bytes: bytes,
) -> bytes:
    """The canonical bytes under every link-layer edge MAC."""
    return (
        _EDGE_TAG_ENCODED
        + encode_parts(claimed_sender, receiver)
        + phase_name_encoded
        + encode_parts(interval, payload_bytes)
    )


class _SendBatch:
    """Shared per-broadcast state behind a struct-of-arrays frame fanout.

    Each sender of a :meth:`PhaseContext.send` or
    :meth:`PhaseContext.broadcast` block produces one batch, and its
    ``d`` frames reference it.  Everything identical across the
    receivers of a local broadcast — the payload, its canonical bytes,
    its wire size, the per-interval ``encode_parts(interval,
    payload_bytes)`` suffix — is computed at most once here instead of
    once per frame.

    A batch keeps the network and the phase's name, not the phase: the
    phase's frame store holds its batches, so a back-reference would make
    every phase a reference cycle that only the cyclic collector frees.
    """

    __slots__ = (
        "network",
        "phase_name_encoded",
        "claimed_sender",
        "payload",
        "_encoded",
        "payload_wire",
        "_interval_encs",
    )

    def __init__(
        self, phase: "PhaseContext", claimed_sender: int, payload: Payload
    ) -> None:
        self.network = phase.network
        self.phase_name_encoded = phase._name_encoded
        self.claimed_sender = claimed_sender
        self.payload = payload
        self._encoded: Optional[bytes] = None
        self.payload_wire = payload.wire_size() + MAC_BYTES + EDGE_KEY_INDEX_BYTES
        # Clock-shift faults can land frames of one broadcast in
        # different intervals, so the interval+payload suffix is a tiny
        # per-batch map rather than a single cached value.
        self._interval_encs: Dict[int, bytes] = {}

    @property
    def payload_bytes(self) -> bytes:
        """The payload's canonical bytes, encoded on first read.

        One local broadcast, one encoding: every receiver's edge MAC
        covers the same bytes.  Only MAC materialization and the service
        wire read them, so an honest simulated send never encodes its
        payload.
        """
        encoded = self._encoded
        if encoded is None:
            encoded = self._encoded = self.payload.canonical_bytes()
        return encoded

    def message_for(self, receiver: int, interval: int) -> bytes:
        """:func:`_edge_mac_message` stitched from the cached prefixes."""
        suffix = self._interval_encs.get(interval)
        if suffix is None:
            suffix = encode_parts(interval, self.payload_bytes)
            self._interval_encs[interval] = suffix
        return (
            _EDGE_TAG_ENCODED
            + encode_parts(self.claimed_sender, receiver)
            + self.phase_name_encoded
            + suffix
        )

    def edge_mac(self, receiver: int, key_index: int, interval: int) -> bytes:
        """The edge MAC of this batch's frame to ``receiver`` under pool
        key ``key_index`` in ``interval``."""
        key = self.network.registry.pool_key(key_index)
        return compute_mac_message(key, self.message_for(receiver, interval))


class Delivery:
    """One received link-layer frame, as :meth:`PhaseContext.inbox`
    returns it.

    A ``Delivery`` is built per read from one row of the frame store
    (:meth:`PhaseContext.rows`); the store itself keeps none.  Frames
    share their broadcast's :class:`_SendBatch`; ``edge_mac`` is
    computed on first access (honest nodes often never read flooded
    duplicates).  The receiver-side checks on mutable state ran at
    transmit time (see :meth:`PhaseContext.send`).
    """

    __slots__ = ("_batch", "receiver", "key_index", "interval", "_mac", "_verified")

    def __init__(
        self,
        batch: _SendBatch,
        receiver: int,
        key_index: int,
        interval: int,
        edge_mac: Optional[bytes] = None,
        verified: Optional[bool] = None,
    ) -> None:
        self._batch = batch
        self.receiver = receiver
        self.key_index = key_index
        self.interval = interval
        self._mac = edge_mac
        self._verified = verified

    @property
    def sender(self) -> int:
        """Claimed sender id (authenticated only up to the edge key)."""
        return self._batch.claimed_sender

    @property
    def payload(self) -> Payload:
        return self._batch.payload

    @property
    def edge_mac(self) -> bytes:
        mac = self._mac
        if mac is None:
            mac = self._mac = self._batch.edge_mac(self.receiver, self.key_index, self.interval)
        return mac

    @property
    def verified(self) -> bool:
        """Whether the receiver's link layer accepts this frame.

        The receiver-side acceptance checks that depend on *mutable*
        state (key revocation, key possession) ran at transmit time, so
        a revocation between send and read cannot change the outcome.
        A frame that passed them (``verified=None``) carries a MAC the
        simulator computes under this same key over this same canonical
        message (see ``edge_mac``), and an HMAC over its own bytes
        always verifies, so its verdict is ``True`` without walking the
        HMAC.  Frames the adversary could taint never get there: forging
        is refused at send time (key possession is enforced and the
        simulator signs on the sender's behalf).  A MAC received off the
        wire is checked for real by
        :func:`repro.service.wire.ingest_envelope`, which passes its
        verdict in.
        """
        verdict = self._verified
        return True if verdict is None else verdict

    def wire_size(self) -> int:
        return self._batch.payload_wire

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Delivery(sender={self.sender}, receiver={self.receiver}, "
            f"payload={type(self.payload).__name__}, key_index={self.key_index}, "
            f"interval={self.interval})"
        )


class PhaseContext:
    """One slotted protocol phase (tree formation, aggregation, SOF, ...).

    The phase advances interval by interval under the caller's control.
    An honest step sends each interval's senders as one block and reads
    the interval back in one sweep over its rows:

    >>> phase = network.new_phase("tree", num_intervals=L)          # doctest: +SKIP
    >>> for k in phase.intervals():                                 # doctest: +SKIP
    ...     phase.broadcast(senders, payloads, k)
    ...     receivers, batch_ids, batches, keys, verdicts = phase.rows(k)

    :meth:`send` is the one-sender form (the adversary's and the
    baselines').  :meth:`rows` is the one read of the frame store;
    :meth:`inbox` selects one receiver's frames out of it as
    ``Delivery`` objects, for the readers that act per receiver (the
    adversary, the base station, the baselines).  Sends must target the
    current or a future interval; interval ``k`` is readable once ``k``
    has begun.
    """

    def __init__(
        self, network: "Network", name: str, num_intervals: int, sequence: int = 0
    ) -> None:
        if num_intervals < 1:
            raise NetworkError("a phase needs at least one interval")
        self.network = network
        self.name = name
        # Static per-phase slice of the edge-MAC message (see
        # _edge_mac_message); encoded once instead of per frame.
        self._name_encoded = encode_parts(name)
        self.num_intervals = num_intervals
        # Monotone per-network sequence number: a stable identity for
        # "have I acted in this phase yet" bookkeeping (object ids get
        # recycled; this never does).
        self.sequence = sequence
        self.current_interval = 0
        # Frame store: the struct-of-arrays column store, or whatever
        # the network's factory supplies (the service runtime does, to
        # ship frames between OS processes while keeping this exact
        # store contract).
        factory = network.transport_factory
        if factory is not None:
            self.transport = factory(self)
        else:
            self.transport = SoATransport()
        self._payloads_per_interval: Dict[Tuple[int, int], int] = {}
        self.suppressed_sends = 0

    # ------------------------------------------------------------------
    # Interval control
    # ------------------------------------------------------------------
    def intervals(self) -> Iterable[int]:
        """Iterate intervals 1..num_intervals, advancing the phase."""
        for k in range(1, self.num_intervals + 1):
            self.begin_interval(k)
            yield k

    def begin_interval(self, k: int) -> None:
        if k != self.current_interval + 1:
            raise NetworkError(
                f"intervals must advance sequentially; at {self.current_interval}, got {k}"
            )
        self.current_interval = k
        network = self.network
        if network.service_replica:
            # Replica hosts (repro.service) keep their own cumulative
            # interval clock: the coordinator owns the metrics, but
            # fault windows are expressed on the cumulative-slot axis
            # and must advance identically on every replica.
            network.service_interval_clock += 1
            global_interval = network.service_interval_clock
        else:
            network.metrics.record_intervals(1)
            global_interval = network.metrics.intervals_elapsed
        injector = network.fault_injector
        if injector is not None:
            # Global interval index = cumulative slots across all phases;
            # fault windows are expressed on this axis.
            injector.on_interval_begin(self.name, global_interval)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def remaining_capacity(self, sender: int, interval: int) -> int:
        used = self._payloads_per_interval.get((sender, interval), 0)
        return max(0, self.network.config.network.forwarding_capacity - used)

    def _open(self, interval: int) -> bool:
        """Whether a send into ``interval`` can land: past intervals
        raise; intervals beyond the phase are a legal no-op (the frame
        evaporates, matching "ignored after the L-th interval")."""
        if interval < max(1, self.current_interval):
            raise NetworkError(
                f"cannot send into past interval {interval} (current {self.current_interval})"
            )
        return interval <= self.num_intervals

    def _charge(self, sender: int, interval: int) -> bool:
        """Count one payload against the sender's interval capacity;
        ``False`` (and nothing charged) when it is exhausted."""
        slot = (sender, interval)
        used = self._payloads_per_interval.get(slot, 0)
        if used >= self.network.config.network.forwarding_capacity:
            self.suppressed_sends += 1
            return False
        self._payloads_per_interval[slot] = used + 1
        return True

    def send(
        self,
        sender: int,
        receivers: Sequence[int],
        payload: Payload,
        interval: int,
        key_index: Optional[int] = None,
        allow_nonneighbor: bool = False,
        claimed_sender: Optional[int] = None,
    ) -> bool:
        """Transmit one payload to a set of receivers in ``interval``.

        One call counts once against the sender's per-interval capacity
        regardless of the receiver count (a radio transmission is local
        broadcast; the per-receiver cost is the individual edge MACs,
        which we charge in bytes).  Returns ``False`` when capacity is
        exhausted (the payload is silently dropped, as a saturated radio
        would).

        ``key_index`` overrides the default edge key — only the
        adversary has a reason to do this, e.g. to inject on a specific
        compromised key.  ``allow_nonneighbor`` models wormholes (the
        attack model lets the adversary "send messages to any sensor").
        ``claimed_sender`` forges the unauthenticated sender field.

        A send is atomic: every receiver is validated before capacity is
        charged or any frame is put on the air, so a send that raises
        :class:`NetworkError` leaves no trace.
        """
        if not self._open(interval):
            return False
        network = self.network
        if self.remaining_capacity(sender, interval) == 0:
            self.suppressed_sends += 1
            return False

        # Resolve every receiver against the sender's row of the secure
        # view (its radio neighbours and their current edge keys) before
        # anything is charged.  The transmit-time verdict holds the
        # receiver-side checks that read mutable state (key revocation,
        # key possession), so reading a frame later cannot observe a
        # later revocation; the HMAC is deferred to the first read of
        # ``edge_mac``/``verified``.  The verdict is also the trace
        # event's ``verified``: the simulator's own MAC always verifies.
        row_keys = network._secure_view().keys
        topology = network.topology
        indptr, row_cols = topology.indptr, topology.cols
        known = 0 <= sender < topology.num_nodes
        start, stop = (indptr[sender], indptr[sender + 1]) if known else (0, 0)
        malicious = network.malicious_ids
        targets: List[Tuple[int, int, bool]] = []
        for receiver in receivers:
            try:
                edge_key = row_keys[row_cols.index(receiver, start, stop)]
            except ValueError:
                edge_key = self._off_row_key(sender, receiver, key_index, allow_nonneighbor)
            if key_index is not None:
                targets.append(
                    (receiver, key_index, network._precheck_accepts(receiver, key_index))
                )
            elif edge_key >= 0:
                # The default edge key is never revoked and both endpoints
                # hold it, so the precheck collapses to whether the
                # receiver runs honest accept logic at all (the base
                # station does; it is never malicious).
                verdict = receiver not in malicious
                targets.append((receiver, edge_key, verdict))
            # else: no shared usable key — the frame cannot be
            # authenticated and an honest receiver would drop it; skip.
        if key_index is not None and targets and not network.sender_possesses_key(
            sender, key_index
        ):
            # The simulator computes MACs on behalf of senders, so it must
            # refuse to "forge" with a key the sender does not possess —
            # that would hand the adversary a capability the attack model
            # denies it.  (Compromised sensors pool their loot: any
            # malicious sensor may use any compromised key.)
            raise NetworkError(f"sender {sender} does not possess pool key {key_index}")
        self._charge(sender, interval)
        origin = claimed_sender if claimed_sender is not None else sender
        columns = tuple(zip(*targets)) if targets else ((), (), ())
        self._transmit(
            interval, (sender,), (_SendBatch(self, origin, payload),), (len(targets),), *columns
        )
        return True

    def broadcast(
        self,
        senders: Sequence[int],
        payloads: Sequence[Payload],
        interval: int,
        links: Optional[Sequence[Sequence[Tuple[int, int]]]] = None,
    ) -> None:
        """Each sender transmits its payload to its whole secure row.

        The block form of :meth:`send` for honest local broadcasts: in
        ascending sender order, each sender is charged capacity (a sender
        out of capacity is suppressed, as in :meth:`send`) and its secure
        row — usable neighbours, edge keys and honest-accept verdicts,
        already resolved for the current revocation epoch — goes on the
        air.  ``links[i]``, when given, replaces sender ``i``'s row with
        ``(receiver, edge key)`` pairs taken from it, in that order (an
        aggregation bundle goes to the sender's parents only).  A sender
        with no usable link has nothing to transmit and is skipped.
        Every row of the block is delivered by one :meth:`_transmit`, so
        the block costs one transport write.
        """
        if not self._open(interval):
            return
        ptr, cols, keys, verdicts = self.network._secure_view().secure_rows()
        malicious = self.network.malicious_ids
        active: List[int] = []
        batches: List[_SendBatch] = []
        counts: List[int] = []
        receivers, key_indices, accepts = array("i"), array("i"), array("b")
        for i, (sender, payload) in enumerate(zip(senders, payloads)):
            if links is None:
                start, stop = ptr[sender], ptr[sender + 1]
                row = (cols[start:stop], keys[start:stop], verdicts[start:stop])
            else:
                row = (
                    [receiver for receiver, _ in links[i]],
                    [key_index for _, key_index in links[i]],
                    [receiver not in malicious for receiver, _ in links[i]],
                )
            if not row[0] or not self._charge(sender, interval):
                continue
            active.append(sender)
            batches.append(_SendBatch(self, sender, payload))
            counts.append(len(row[0]))
            receivers.extend(row[0])
            key_indices.extend(row[1])
            accepts.extend(row[2])
        if active:
            self._transmit(interval, active, batches, counts, receivers, key_indices, accepts)

    def _transmit(
        self,
        interval: int,
        senders: Sequence[int],
        batches: Sequence[_SendBatch],
        counts: Sequence[int],
        receivers: Sequence[int],
        key_indices: Sequence[int],
        verdicts: Sequence[bool],
    ) -> None:
        """Put resolved, charged rows on the air: the one delivery loop.

        ``batches[i]`` (sent by ``senders[i]``) owns the next
        ``counts[i]`` rows of the receiver, key and verdict columns.
        Without a fault injector, residual loss or a tracer every row is
        delivered, so the block goes to the transport in one write and
        to the metrics in one update.  Otherwise each sender's rows run
        the per-receiver checks in row order — crash and link checks,
        the residual-loss draw, the burst-loss draw, the clock-shift
        lateness check, the trace event and the duplicate draw — and
        its surviving rows are deposited, exactly as one :meth:`send`
        after another would.
        """
        network = self.network
        metrics = network.metrics
        tracer = network.tracer
        loss_rate = network.config.network.loss_rate
        injector = network.fault_injector
        if injector is None and tracer is None and loss_rate <= 0.0:
            if receivers:
                self.transport.deposit(
                    interval, batches, counts, receivers, key_indices, verdicts
                )
                wires = [batch.payload_wire for batch in batches]
                metrics.record_sends(senders, counts, wires, receivers)
            return
        stop = 0
        for sender, batch, count in zip(senders, batches, counts):
            start, stop = stop, stop + count
            wire = batch.payload_wire
            at, shift, late = interval, 0, False
            if injector is not None:
                if injector.node_down(sender):
                    # A crashed sender transmits nothing: no airtime
                    # burned, but the frames the protocol wanted on the
                    # air are gone.
                    metrics.messages_lost += count
                    continue
                # A sender whose clock escaped the guard band lands its
                # frames whole intervals late; beyond the phase they are
                # simply gone.
                shift = injector.clock_interval_shift(sender)
                late = interval + shift > self.num_intervals
                at = interval + shift
            rows: List[Tuple[int, int, bool]] = []
            repeats = 0
            for row in range(start, stop):
                receiver = receivers[row]
                if injector is not None and (
                    injector.node_down(receiver) or injector.link_blocked(sender, receiver)
                ):
                    # Dead receiver or severed link: the sender cannot
                    # know and transmits anyway, so airtime is charged.
                    metrics.record_lost_transmission(sender, wire)
                    continue
                # Residual link loss (extension; off by default — see
                # NetworkConfig.loss_rate): an independent draw **per
                # receiver**, as each receiver's radio fades
                # independently.  The sender still burns the airtime.
                if loss_rate > 0.0 and network.loss_rng.random() < loss_rate:
                    metrics.record_lost_transmission(sender, wire)
                    continue
                if injector is not None:
                    # Injected burst loss stacks on top, again with a
                    # per-receiver draw (from the injector's own seeded
                    # stream, so plans replay bit-identically).
                    burst = injector.extra_loss_rate(receiver)
                    if burst > 0.0 and injector.rng.random() < burst:
                        metrics.record_lost_transmission(sender, wire)
                        metrics.record_fault("burst-loss-drop")
                        continue
                    if shift:
                        metrics.record_fault("late-frame")
                        if late:
                            metrics.record_lost_transmission(sender, wire)
                            continue
                target = (receiver, key_indices[row], bool(verdicts[row]))
                rows.append(target)
                if tracer is not None:
                    tracer.record(
                        "transmission",
                        phase=self.name,
                        interval=at,
                        sender=sender,
                        claimed=batch.claimed_sender,
                        receiver=receiver,
                        payload=type(batch.payload).__name__,
                        key_index=target[1],
                        verified=target[2],
                    )
                if injector is not None:
                    dup = injector.duplicate_probability(receiver)
                    if dup > 0.0 and injector.rng.random() < dup:
                        # Retransmit-with-lost-ack artefact: the receiver
                        # hears an identical second copy, and only its
                        # side pays; protocol logic must stay idempotent
                        # under it.
                        rows.append(target)
                        repeats += 1
                        metrics.record_fault("duplicate")
            if rows:
                row_receivers, row_keys, row_verdicts = zip(*rows)
                self.transport.deposit(
                    at, (batch,), (len(rows),), row_receivers, row_keys, row_verdicts
                )
                metrics.record_send(sender, row_receivers, wire, repeats)

    def _off_row_key(
        self, sender: int, receiver: int, key_index: Optional[int], allow_nonneighbor: bool
    ) -> int:
        """Edge key toward a receiver missing from the sender's radio row.

        That is a self-send (topologies have no self-loops), refused, or
        a non-radio pair, refused unless ``allow_nonneighbor`` (a
        wormhole send).  On the default key a wormhole frame takes the
        registry's direct computation; ``-1`` means no shared usable key.
        """
        if receiver == sender:
            raise NetworkError("node cannot send to itself")
        if not allow_nonneighbor:
            raise NetworkError(
                f"{sender} -> {receiver} is not a radio link "
                "(pass allow_nonneighbor=True to model a wormhole)"
            )
        if key_index is not None:
            return -1  # the explicit key is used as given
        index = self.network.registry.edge_key_index(sender, receiver)
        return -1 if index is None else index

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def rows(self, interval: int) -> Tuple[
        Sequence[int], Sequence[int], Sequence["_SendBatch"], Sequence[int], Sequence[bool]
    ]:
        """Every frame of ``interval`` as ``(receivers, batch_ids,
        batches, key_indices, verdicts)``: row ``i`` carries
        ``batches[batch_ids[i]]`` to ``receivers[i]`` under edge key
        ``key_indices[i]``, and ``verdicts[i]`` is the frame's
        ``Delivery.verified``.  Each receiver's rows keep deposit order.

        The one read of the frame store: an honest step sweeps each
        interval through it once, building no ``Delivery`` objects, and
        :meth:`inbox` filters it.  Interval ``k`` is readable once ``k``
        has begun.
        """
        if interval > self.current_interval:
            raise NetworkError(
                f"interval {interval} has not begun (current {self.current_interval})"
            )
        return self.transport.rows(interval)

    def inbox(self, receiver: int, interval: int) -> List[Delivery]:
        """Frames delivered to ``receiver`` during ``interval``, in
        deposit order: its rows of :meth:`rows`, as fresh ``Delivery``
        objects.

        Returns all frames; honest protocol logic must filter on
        ``Delivery.verified``.  Only the adversary, the base station and
        the baselines read one receiver at a time.
        """
        receivers, batch_ids, batches, key_indices, verdicts = self.rows(interval)
        if not len(receivers):
            return []
        mine = np.flatnonzero(np.asarray(receivers) == receiver).tolist()
        return [
            Delivery(
                batches[batch_ids[row]],
                receiver,
                key_indices[row],
                interval,
                verified=None if verdicts[row] else False,
            )
            for row in mine
        ]

    def verified_inbox(self, receiver: int, interval: int) -> List[Delivery]:
        """The frames of :meth:`inbox` whose ``verified`` holds."""
        return [d for d in self.inbox(receiver, interval) if d.verified]


class Network:
    """Topology + keys + clocks + honest node state + metrics."""

    def __init__(
        self,
        topology: Topology,
        registry: KeyRegistry,
        config: ExperimentConfig,
        seed: int = 0,
        malicious_ids: Iterable[int] = (),
    ) -> None:
        self.topology = topology
        self.registry = registry
        self.config = config
        self.seed = seed
        self.malicious_ids: FrozenSet[int] = frozenset(malicious_ids)
        if BASE_STATION_ID in self.malicious_ids:
            raise NetworkError("the base station is trusted by assumption (Section III)")
        self.metrics = Metrics()
        self.clocks = ClockAssignment(topology.node_ids, config.clock, seed)
        self.authority = BroadcastAuthority(registry.pool.broadcast_chain_seed())
        # Chain values of the broadcast indices some sensor verified;
        # with the per-node index column, this is every sensor's μTESLA
        # verifier state.
        self._chain_values: Dict[int, bytes] = {0: self.authority.anchor}
        # Every honest sensor, revoked or not, ascending: the loops'
        # population.  Membership is "not malicious" (is_honest_sensor).
        malicious = self.malicious_ids
        self.honest_sensors: Tuple[int, ...] = tuple(
            i for i in topology.sensor_ids if i not in malicious
        )
        # Every sensor's audit tuples (Sections IV-B/IV-C), honest and
        # malicious alike.
        self.audit = AuditLog()
        # Per-sensor state as columns keyed by id (repro.core.node_columns).
        self.node_columns = NodeColumns(topology.num_nodes)

        self._adversary_pool_indices: Optional[FrozenSet[int]] = None
        # (revocation epoch, honest_ids as a frozenset); see honest_id_set.
        self._honest_id_set: Tuple[int, FrozenSet[int]] = (-1, frozenset())
        # Incrementally-maintained secure-link state (built lazily on the
        # first secure-topology query).
        self._secure_topology: Optional[_SecureTopologyView] = None
        self._phase_counter = 0
        # Residual-loss stream, derived through the shared SHA-256 scheme
        # (repro.seeding) so its identity matches campaign-cell seeding.
        self.loss_rng = derive_rng("link-loss", seed)
        # Optional structured-event recorder (see repro.tracing.Tracer).
        self.tracer = None
        # Optional benign-fault driver (see repro.faults.FaultInjector);
        # set by FaultInjector.attach().  Every fault hook below is gated
        # on this being non-None, so fault-free runs take the exact code
        # paths they always did.
        self.fault_injector = None
        # Service-runtime seams (repro.service; all inert by default so
        # simulator runs take the exact code paths they always did):
        # * transport_factory: phase -> transport, substituting the
        #   frame store (docs/SERVICE.md transport contract);
        # * honest_driver: when set, the core phase loops delegate their
        #   honest per-interval work to it (node host processes);
        # * broadcast_hook: called with each authenticated flood's
        #   payload so the coordinator can fan it out to node hosts;
        # * service_replica: marks a deterministic replica network inside
        #   a node host — replicas run real protocol logic but must not
        #   double-count global metrics, so interval/broadcast clocks
        #   move to the two counters below.
        self.transport_factory = None
        self.honest_driver = None
        self.broadcast_hook = None
        self.service_replica = False
        self.service_interval_clock = 0
        self.service_broadcast_clock = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def is_malicious(self, node_id: int) -> bool:
        return node_id in self.malicious_ids

    def is_honest_sensor(self, node_id: int) -> bool:
        """Whether ``node_id`` is a deployed sensor running honest code
        (revoked or not); the base station is not a sensor."""
        return 0 < node_id < self.topology.num_nodes and node_id not in self.malicious_ids

    def adversary_pool_indices(self) -> FrozenSet[int]:
        """Union of all compromised rings: the keys the adversary can use."""
        if self._adversary_pool_indices is None:
            indices: Set[int] = set()
            for node_id in self.malicious_ids:
                indices.update(self.registry.ring(node_id))
            self._adversary_pool_indices = frozenset(indices)
        return self._adversary_pool_indices

    def sender_possesses_key(self, sender: int, key_index: int) -> bool:
        """Whether ``sender`` can compute MACs under pool key ``key_index``.

        Honest sensors use only their own ring; the base station holds
        everything; compromised sensors share the adversary's pooled loot
        (the attack model lets malicious sensors collude freely).
        """
        if sender in self.malicious_ids:
            return key_index in self.adversary_pool_indices()
        return self.registry.node_holds(sender, key_index)

    @property
    def honest_ids(self) -> List[int]:
        """Honest, non-revoked sensors (the nodes that still participate)."""
        revoked = self.registry.revoked_sensors
        return [i for i in self.honest_sensors if i not in revoked]

    def honest_id_set(self) -> FrozenSet[int]:
        """:attr:`honest_ids` as a set, derived once per revocation epoch."""
        epoch = self.registry.revocation_epoch
        if self._honest_id_set[0] != epoch:
            self._honest_id_set = (epoch, frozenset(self.honest_ids))
        return self._honest_id_set[1]

    # ------------------------------------------------------------------
    # Secure topology
    # ------------------------------------------------------------------
    def _secure_view(self) -> "_SecureTopologyView":
        """The incremental secure-link view, synced to the revocation log."""
        view = self._secure_topology
        if view is None:
            view = _SecureTopologyView(self)
            self._secure_topology = view
        elif view._epoch != len(self.registry.revocation.log):
            view.sync()
        return view

    def edge_key_index(self, a: int, b: int) -> Optional[int]:
        """Current edge key for link ``(a, b)``."""
        return self._secure_view().edge_key_index(a, b)

    def usable_links(self, node_id: int, others: Iterable[int]) -> List[Tuple[int, int]]:
        """``(other, edge key)`` for each of ``others``, in order, that is
        a radio neighbour of ``node_id`` over a link usable now (the
        :meth:`KeyRegistry.link_usable` test, answered from the secure
        rows)."""
        return self._secure_view().usable_links(node_id, others)

    def secure_neighbors(self, node_id: int) -> List[int]:
        """Radio neighbours reachable over a currently usable link."""
        return self._secure_view().secure_neighbors(node_id)

    def secure_links(self, node_id: int) -> List[Tuple[int, int]]:
        """:meth:`secure_neighbors` paired with each link's edge key."""
        return self._secure_view().secure_links(node_id)

    def honest_secure_component(self) -> Set[int]:
        """Nodes reachable from the base station over usable links
        through honest, non-revoked sensors only."""
        return self._secure_view().honest_secure_component()

    def fault_aware_secure_component(self) -> Set[int]:
        """:meth:`honest_secure_component` minus currently-injected faults.

        With no injector attached this *is* the honest secure component.
        Otherwise crashed nodes and severed links (churn or partition)
        are excluded, giving the set of honest sensors a base-station
        flood can physically reach right now.
        """
        injector = self.fault_injector
        if injector is None:
            return self.honest_secure_component()
        return self._secure_view().fault_aware_component(injector)

    def effective_depth_bound(self) -> int:
        """Depth of the honest secure component (<= configured L when the
        deployment assumption holds)."""
        return self._secure_view().effective_depth_bound()

    # ------------------------------------------------------------------
    # Phases and broadcast
    # ------------------------------------------------------------------
    def new_phase(self, name: str, num_intervals: int) -> PhaseContext:
        self._phase_counter += 1
        return PhaseContext(self, name, num_intervals, sequence=self._phase_counter)

    def receiver_accepts(
        self,
        receiver: int,
        key_index: int,
        mac: bytes,
        claimed_sender: int,
        phase_name: str,
        interval: int,
        payload: Payload,
    ) -> bool:
        """Whether an honest receiver's link layer accepts this frame."""
        message = _edge_mac_message(
            claimed_sender,
            receiver,
            encode_parts(phase_name),
            interval,
            payload.canonical_bytes(),
        )
        return self._accepts_message(receiver, key_index, mac, message)

    def _accepts_message(
        self, receiver: int, key_index: int, mac: bytes, message: bytes
    ) -> bool:
        """:meth:`receiver_accepts` over the pre-encoded edge-MAC bytes."""
        if not self._precheck_accepts(receiver, key_index):
            return False
        key = self.registry.pool_key(key_index)
        return verify_mac_message(key, mac, message)

    def _precheck_accepts(self, receiver: int, key_index: int) -> bool:
        """The non-cryptographic half of :meth:`_accepts_message`.

        These checks read *mutable* state (the revoked-key set) plus
        static key possession, so the lazy delivery path evaluates them
        at transmit time — deferring only the time-invariant MAC match.
        """
        if self.registry.revocation.is_key_revoked(key_index):
            return False
        if receiver != BASE_STATION_ID:
            if not self.is_honest_sensor(receiver):
                return False  # malicious receivers have no honest accept logic
            if not self.registry.node_holds(receiver, key_index):
                return False
        return True

    def verified_chain_value(self, index: int) -> Optional[bytes]:
        """The broadcast chain value at ``index``, if a sensor verified it
        (index 0 is the deployed anchor)."""
        return self._chain_values.get(index)

    def authenticated_flood(self, *payload: Any) -> Tuple[Any, ...]:
        """Flood an authenticated base-station message to all honest
        sensors (the service of Ning et al. [20]).

        Uses the real hash-chain construction: a wave-1 MAC'd message
        followed by a wave-2 key disclosure, verified by every sensor
        reached.  Sensors that verified the same chain index hold the
        same verifier state, so the chain walk and MAC check run once
        per distinct index among them; a sensor that missed a round is
        simply at an older index.  Costs one flooding round.  Raises
        :class:`ProtocolError` if any honest verifier rejects — that
        would mean our authority broke its own chain, which the proofs
        (and tests) treat as impossible.
        """
        message = self.authority.sign(*payload)
        disclosure = self.authority.disclose(message.index)
        wire = message.wire_size() + disclosure.wire_size()
        injector = self.fault_injector
        # Replicas (service node hosts) run the full flood for its state
        # effects — verifier chain advance, crash-suspected flags — but
        # the coordinator already accounts the broadcast globally, so
        # replica metric writes are skipped and the round index comes
        # from the replica's own broadcast clock.
        metrics = None if self.service_replica else self.metrics
        if metrics is None:
            self.service_broadcast_clock += 1
            round_index = self.service_broadcast_clock
        else:
            round_index = metrics.authenticated_broadcasts + 1
        if injector is None:
            component = self.honest_secure_component()
            # Partitioned sensors cannot be reached (Section III).
            reached = [node_id for node_id in self.honest_sensors if node_id in component]
        else:
            injector.on_broadcast(round_index)
            component = self.fault_aware_secure_component()
            reached = []
            for node_id in self.honest_sensors:
                if (
                    node_id not in component
                    or injector.node_down(node_id)
                    or injector.broadcast_blocked(round_index, node_id)
                ):
                    # The sensor misses a control message it knows it
                    # should have seen (its chain index will jump at the
                    # next round it does receive), so it abstains from
                    # vetoing rather than acting on a stale view of the
                    # execution.
                    self.node_columns.crash_suspected[node_id] = True
                    if metrics is not None:
                        metrics.messages_lost += 1
                        metrics.record_fault("broadcast-miss")
                    continue
                reached.append(node_id)
        self._verify_broadcast(reached, message, disclosure)
        if metrics is not None:
            # Nothing above mutates revocation state, so one synced view
            # serves every sensor's degree.
            ptr = self._secure_view().secure_rows()[0]
            bytes_sent, bytes_received = metrics.bytes_sent, metrics.bytes_received
            for node_id in reached:
                bytes_sent[node_id] += wire * (ptr[node_id + 1] - ptr[node_id])
                bytes_received[node_id] += wire
            metrics.record_authenticated_broadcast()
        if injector is not None:
            extra = injector.broadcast_delay(round_index)
            if extra and metrics is not None:
                # The [20] primitive retried through a lossy period: the
                # message still arrives, but the round costs more time.
                metrics.record_flooding_rounds(extra, "broadcast-delayed")
        if self.broadcast_hook is not None:
            self.broadcast_hook(tuple(payload))
        if self.tracer is not None:
            self.tracer.record(
                "authenticated-broadcast",
                label=str(payload[0]) if payload else "",
                reached=len(component) - 1,
            )
        return tuple(payload)

    def _verify_broadcast(self, reached: List[int], message, disclosure) -> None:
        """Every reached sensor verifies one broadcast and advances its
        chain index: one :func:`check_disclosure` per distinct index."""
        if not reached:
            return
        column = self.node_columns.broadcast_index
        ids = np.asarray(reached, dtype=np.int64)
        # Distinct indices with the position of the first sensor at each.
        heads, firsts = np.unique(column[ids], return_index=True)
        rejected = [
            first
            for head, first in zip(heads.tolist(), firsts.tolist())
            if check_disclosure(self._chain_values.get(head), head, disclosure, message)[1]
            != message.payload
        ]
        if rejected:
            raise ProtocolError(
                f"honest sensor {reached[min(rejected)]} rejected an authentic broadcast"
            )
        column[ids] = message.index
        self._chain_values[message.index] = disclosure.chain_key


def _current_key(registry: KeyRegistry, a: int, b: int) -> int:
    """:meth:`KeyRegistry.edge_key_index` with ``-1`` for no usable key."""
    index = registry.edge_key_index(a, b)
    return -1 if index is None else index


class _SecureTopologyView:
    """Incrementally-maintained secure-link state for one :class:`Network`.

    Answering every secure-topology query (per phase, per flood, per
    frame) by re-intersecting key rings and rebuilding a filtered
    :class:`Topology` copy is O(edges x ring) work that caps executions
    at toy sizes.  This view computes each edge's current edge key
    **once**, then applies revocation events *incrementally*:
    the registry's append-only log (:attr:`KeyRegistry.revocation_epoch`)
    is the version counter, and :meth:`sync` replays only ``log[seen:]``.

    * a ``key`` event touches exactly the edges whose *current* edge key
      is the revoked index (tracked in ``_keyed_edges``) — each re-scans
      its shared-index tuple for the next non-revoked key;
    * a ``sensor`` event needs no edge-key work at all: endpoint
      revocation is checked live against the registry's O(1) sets (the
      induced ring-dump key revocations arrive as their own log events).

    Every query returns exactly what the registry's direct computation
    (:meth:`KeyRegistry.link_usable` over the radio topology) returns —
    the view only changes *when* per-edge work happens, never its
    outcome.

    **The radio graph is the topology's.**  The view reads
    ``topology.indptr``/``topology.cols`` (the CSR rows, in protocol row
    order) and never writes them — one :class:`Topology` may serve
    several networks.  It owns only what it adds: ``keys``, the current
    edge key of each CSR entry (``-1`` = no usable key), the inverted
    key -> edges map that replays key revocations, and per-epoch memos.

    **Per epoch.**  :meth:`secure_rows` filters the radio rows down to
    the links usable in the current revocation epoch — keyed edges
    between unrevoked endpoints, in CSR row order — and pairs each with
    its edge key and the honest-accept verdict (the receiver is the base
    station or an honest sensor).  One :meth:`Topology.depths` run over
    the keyed edges and the honest, unrevoked sensors gives both the
    honest secure component and its depth bound.  :meth:`sync` drops
    both memos.
    """

    __slots__ = (
        "network",
        "_epoch",
        "keys",
        "_keyed_edges",
        "_component",
        "_depth_bound",
        "_rows",
    )

    def __init__(self, network: Network) -> None:
        self.network = network
        topology = network.topology
        registry = network.registry
        # One key per undirected edge, written into both directions.
        heads, tails = array("i"), array("i")
        for a, b in topology.edges():
            heads.append(a)
            tails.append(b)
        if registry.revocation_epoch == 0:
            # Nothing revoked yet: every edge key is the epoch-zero
            # first-shared index, computed in bulk over region-sharded
            # fork workers instead of one ring intersection per edge.
            found = array("i", registry.ring_table.edge_keys(heads, tails).tobytes())
        else:
            found = array("i", map(_current_key, repeat(registry), heads, tails))
        self.keys = array("i", [-1]) * len(topology.cols)
        for a, b, index in zip(heads, tails, found):
            self._set_edge_key(a, b, index)
        # Inverted key -> edges map, needed only to replay key-revocation
        # events; built lazily on the first sync (fully honest runs never
        # pay for it).
        self._keyed_edges: Optional[Dict[int, Set[Tuple[int, int]]]] = None
        self._epoch = registry.revocation_epoch
        self._component: Optional[Set[int]] = None
        self._depth_bound: Optional[int] = None
        # This epoch's secure rows (see secure_rows); None until asked.
        self._rows: Optional[Tuple[array, array, array, array]] = None

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def _ensure_keyed_edges(self) -> Dict[int, Set[Tuple[int, int]]]:
        keyed = self._keyed_edges
        if keyed is None:
            keyed = defaultdict(set)
            topology = self.network.topology
            indptr, cols, keys = topology.indptr, topology.cols, self.keys
            for a in range(topology.num_nodes):
                for pos in range(indptr[a], indptr[a + 1]):
                    b = cols[pos]
                    if b > a and keys[pos] >= 0:
                        keyed[keys[pos]].add((a, b))
            self._keyed_edges = keyed
        return keyed

    def _set_edge_key(self, a: int, b: int, index: int) -> None:
        """Write one radio edge's current key into both directed entries."""
        topology = self.network.topology
        indptr, cols, keys = topology.indptr, topology.cols, self.keys
        keys[cols.index(b, indptr[a], indptr[a + 1])] = index
        keys[cols.index(a, indptr[b], indptr[b + 1])] = index

    def sync(self) -> None:
        """Apply revocation-log entries recorded since the last query."""
        registry = self.network.registry
        log = registry.revocation.log
        if len(log) == self._epoch:
            return
        keyed_edges = self._ensure_keyed_edges()
        for event in log[self._epoch:]:
            if event.kind != "key":
                continue  # endpoint revocation is checked live per query
            for edge in keyed_edges.pop(event.target, ()):
                index = _current_key(registry, *edge)
                self._set_edge_key(*edge, index)
                if index >= 0:
                    keyed_edges[index].add(edge)
        self._epoch = len(log)
        self._component = None
        self._depth_bound = None
        self._rows = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def edge_key_index(self, a: int, b: int) -> Optional[int]:
        topology = self.network.topology
        if not 0 <= a < topology.num_nodes:
            return self.network.registry.edge_key_index(a, b)
        indptr = topology.indptr
        try:
            pos = topology.cols.index(b, indptr[a], indptr[a + 1])
        except ValueError:
            # Non-radio pair (wormhole sends): fall through to the
            # registry's direct computation.
            return self.network.registry.edge_key_index(a, b)
        index = self.keys[pos]
        return None if index < 0 else index

    def usable_links(self, node_id: int, others: Iterable[int]) -> List[Tuple[int, int]]:
        ptr, cols, keys, _ = self.secure_rows()
        if not 0 <= node_id < len(ptr) - 1:
            return []
        start, stop = ptr[node_id], ptr[node_id + 1]
        links = []
        for other in others:
            try:
                links.append((other, keys[cols.index(other, start, stop)]))
            except ValueError:
                continue  # not a usable radio link
        return links

    def secure_rows(self) -> Tuple[array, array, array, array]:
        """``(ptr, neighbours, keys, verdicts)`` for this epoch: node
        ``n``'s usable links are positions ``ptr[n]:ptr[n + 1]`` of the
        three parallel columns, in radio row order.  A revoked sensor's
        row is empty."""
        rows = self._rows
        if rows is None:
            network = self.network
            is_revoked = network.registry.revocation.is_sensor_revoked
            malicious = network.malicious_ids
            topology = network.topology
            indptr, cols, keys = topology.indptr, topology.cols, self.keys
            ptr, row_cols, row_keys, verdicts = array("q", [0]), array("i"), array("i"), array("b")
            for node in range(topology.num_nodes):
                if node == BASE_STATION_ID or not is_revoked(node):
                    for pos in range(indptr[node], indptr[node + 1]):
                        other = cols[pos]
                        if keys[pos] >= 0 and (other == BASE_STATION_ID or not is_revoked(other)):
                            row_cols.append(other)
                            row_keys.append(keys[pos])
                            verdicts.append(other not in malicious)
                ptr.append(len(row_cols))
            rows = self._rows = (ptr, row_cols, row_keys, verdicts)
        return rows

    def secure_links(self, node_id: int) -> List[Tuple[int, int]]:
        """(neighbour, edge key) per currently usable link, in row order."""
        ptr, cols, keys, _ = self.secure_rows()
        start, stop = ptr[node_id], ptr[node_id + 1]
        return list(zip(cols[start:stop], keys[start:stop]))

    def secure_neighbors(self, node_id: int) -> List[int]:
        ptr, cols, _, _ = self.secure_rows()
        return cols[ptr[node_id]:ptr[node_id + 1]].tolist()

    def _traverse(self) -> None:
        """This epoch's one traversal: keyed edges through honest,
        unrevoked sensors, giving the component and its depth bound."""
        keys = self.keys
        depths = self.network.topology.depths(
            include=self.network.honest_id_set(),
            edge_ok=lambda pos, a, b: keys[pos] >= 0,
        )
        self._component = set(depths)
        self._depth_bound = max(depths.values())

    def honest_secure_component(self) -> Set[int]:
        if self._component is None:
            self._traverse()
        # Callers may mutate the returned set, so hand out a copy.
        return set(self._component)

    def fault_aware_component(self, injector: Any) -> Set[int]:
        # Injector state changes per interval, so this is never cached —
        # but it still runs on the maintained key column.
        keys = self.keys
        up = {i for i in self.network.honest_id_set() if not injector.node_down(i)}
        return set(
            self.network.topology.depths(
                include=up,
                edge_ok=lambda pos, a, b: keys[pos] >= 0 and not injector.link_blocked(a, b),
            )
        )

    def effective_depth_bound(self) -> int:
        if self._depth_bound is None:
            self._traverse()
        if not self._depth_bound:
            raise NetworkError("honest secure component is empty")
        return self._depth_bound
