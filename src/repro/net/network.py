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
from collections import defaultdict, deque
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..config import ExperimentConfig
from ..crypto.encoding import encode_parts
from ..crypto.mac import compute_mac_message, verify_mac_message
from ..errors import NetworkError, ProtocolError
from ..keys.registry import BASE_STATION_ID, KeyRegistry
from ..metrics import Metrics
from ..perf.cache import LRUCache, caching_enabled
from ..seeding import derive_rng
from ..sim.clock import ClockAssignment
from ..topology.graph import Topology
from ..core.node_columns import NodeColumns
from .message import MAC_BYTES, Payload
from .node import HonestNode
from .soa import SoATransport

EDGE_KEY_INDEX_BYTES = 2

#: Verified-MAC memo for the lazy delivery path, keyed by ``(edge key
#: bytes, payload bytes)``.  Every frame the simulator puts on the air
#: carries ``mac = compute_mac_message(key, message)`` over the exact
#: message the receiver verifies, so whether the MAC matches is a pure
#: function of (key, payload): the per-receiver fields (claimed sender,
#: receiver id, interval) appear identically under the signing and the
#: verifying HMAC.  One broadcast to ``d`` neighbours therefore needs
#: one honest verification, not ``d`` — and a re-flood of the same
#: payload on the same edge key needs none.  The memo only ever stores
#: the outcome an honest ``verify_mac_message`` produced, keeping the
#: bit-identical contract (docs/PERFORMANCE.md).
_VERIFIED_MACS = LRUCache("edge-mac-verdicts", maxsize=8192)
_VERIFIED_MACS_VIEW = _VERIFIED_MACS.view()

#: Canonical payload encodings keyed by the payload value itself.  Every
#: payload type is a frozen dataclass whose ``canonical_bytes`` is a
#: pure function of its fields, so equal payloads encode identically —
#: a flood re-forwarding one beacon through a thousand sensors
#: canonicalizes it once, not a thousand times.  Unhashable payloads
#: simply bypass the memo.
_PAYLOAD_ENCODINGS = LRUCache("payload-encodings", maxsize=4096)
_PAYLOAD_ENCODINGS_VIEW = _PAYLOAD_ENCODINGS.view()

#: Canonical encodings of node ids (the per-frame sender/receiver
#: fields).  A tiny domain hit once per frame.
#:
#: These per-frame memos are read through ``LRUCache.view()`` — a plain
#: dict lookup — because the accounting inside ``get`` costs more than
#: the encodings they save.  A view hit still bumps the hit counter
#: (one attribute increment); misses route through ``get``/``put`` as
#: usual.  Views are empty whenever caching is disabled (disabling
#: clears in place), so the fast path can only hit while enabled.
_ID_ENCODINGS = LRUCache("id-encodings", maxsize=16384)
_ID_ENCODINGS_VIEW = _ID_ENCODINGS.view()


def _encode_id(value: int) -> bytes:
    enc = _ID_ENCODINGS_VIEW.get(value)
    if enc is not None:
        _ID_ENCODINGS.hits += 1
        return enc
    if not caching_enabled():
        return encode_parts(value)
    _ID_ENCODINGS.misses += 1
    enc = encode_parts(value)
    _ID_ENCODINGS.put(value, enc)
    return enc


def _payload_bytes(payload: Payload) -> bytes:
    try:
        cached = _PAYLOAD_ENCODINGS_VIEW.get(payload)
    except TypeError:  # unhashable payload: memo cannot apply
        return payload.canonical_bytes()
    if cached is not None:
        _PAYLOAD_ENCODINGS.hits += 1
        return cached
    if not caching_enabled():
        return payload.canonical_bytes()
    _PAYLOAD_ENCODINGS.misses += 1
    cached = payload.canonical_bytes()
    _PAYLOAD_ENCODINGS.put(payload, cached)
    return cached


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

    One :meth:`PhaseContext.send` call produces one batch and ``d``
    :class:`Delivery` frames referencing it.  Everything identical
    across the receivers of a local broadcast — the payload, its
    canonical bytes, its wire size, the claimed sender and its encoding,
    the per-interval ``encode_parts(interval, payload_bytes)`` suffix —
    is computed once here instead of once per frame.

    A batch keeps the network and the phase's name, not the phase: the
    phase's frame store holds its batches, so a back-reference would make
    every phase a reference cycle that only the cyclic collector frees.
    """

    __slots__ = (
        "network",
        "phase_name_encoded",
        "claimed_sender",
        "payload",
        "payload_bytes",
        "payload_wire",
        "claimed_enc",
        "_interval_encs",
    )

    def __init__(
        self, phase: "PhaseContext", claimed_sender: int, payload: Payload
    ) -> None:
        self.network = phase.network
        self.phase_name_encoded = phase._name_encoded
        self.claimed_sender = claimed_sender
        self.payload = payload
        # One local broadcast, one canonical encoding: every receiver's
        # edge MAC covers the same payload bytes.
        self.payload_bytes = _payload_bytes(payload)
        self.payload_wire = payload.wire_size() + MAC_BYTES + EDGE_KEY_INDEX_BYTES
        self.claimed_enc = _encode_id(claimed_sender)
        # Clock-shift faults can land frames of one broadcast in
        # different intervals, so the interval+payload suffix is a tiny
        # per-batch map rather than a single cached value.
        self._interval_encs: Dict[int, bytes] = {}

    def message_for(self, receiver: int, interval: int) -> bytes:
        """:func:`_edge_mac_message` stitched from the cached prefixes."""
        suffix = self._interval_encs.get(interval)
        if suffix is None:
            suffix = encode_parts(interval, self.payload_bytes)
            self._interval_encs[interval] = suffix
        return (
            _EDGE_TAG_ENCODED
            + self.claimed_enc
            + _encode_id(receiver)
            + self.phase_name_encoded
            + suffix
        )


class Delivery:
    """One received link-layer frame.

    Frames share their broadcast's :class:`_SendBatch`; ``edge_mac`` and
    ``verified`` are computed on first access (honest nodes often never
    read flooded duplicates, and one broadcast's MAC validity is
    verified once via the module's verified-MAC memo).  The
    receiver-side checks on mutable state ran at transmit time (see
    :meth:`PhaseContext.send`).
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
            batch = self._batch
            key = batch.network.registry.pool_key(self.key_index)
            mac = compute_mac_message(
                key, batch.message_for(self.receiver, self.interval)
            )
            self._mac = mac
        return mac

    @property
    def verified(self) -> bool:
        """Whether the receiver's link layer accepts this frame.

        Only the MAC-match computation is deferred: the receiver-side
        acceptance checks that depend on *mutable* state (key
        revocation, key possession) were evaluated at transmit time, so
        a revocation between send and read cannot change the outcome.
        """
        verdict = self._verified
        if verdict is None:
            mac = self._mac
            if mac is None:
                # No MAC has been materialized for this frame yet.  When
                # one is (see ``edge_mac``), the simulator computes it
                # under this same key over this same canonical message —
                # and ``verify_mac_message`` of a MAC over its own bytes
                # is deterministically True (HMAC is a pure function).
                # Acceptance therefore rests entirely on the eager
                # transmit-time prechecks; re-walking the HMAC here is
                # work with a provably fixed outcome.  Frames the
                # adversary could taint never take this branch: forging
                # is refused at send time (key possession is enforced
                # and the simulator signs on the sender's behalf), so
                # every materialized MAC is authentic by construction.
                verdict = True
            else:
                # A materialized MAC (an adversary or a service host
                # read it): verify for real, once per (edge key,
                # payload) via the memo.
                batch = self._batch
                key = batch.network.registry.pool_key(self.key_index)
                memo_key = (key, batch.payload_bytes)
                if memo_key in _VERIFIED_MACS_VIEW:
                    _VERIFIED_MACS.hits += 1
                    verdict = True
                else:
                    if caching_enabled():
                        _VERIFIED_MACS.misses += 1
                    message = batch.message_for(self.receiver, self.interval)
                    verdict = verify_mac_message(key, mac, message)
                    if verdict:
                        _VERIFIED_MACS.put(memo_key, True)
            self._verified = verdict
        return verdict

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

    The phase advances interval by interval under the caller's control:

    >>> phase = network.new_phase("aggregation", num_intervals=L)   # doctest: +SKIP
    >>> for k in phase.intervals():                                 # doctest: +SKIP
    ...     for node in ...:
    ...         frames = phase.inbox(node, k)
    ...         phase.send(node, [parent], payload, interval=k + 1)

    Sends must target the current or a future interval; the inbox for
    interval ``k`` is readable once ``k`` has begun.
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
            self.transport = SoATransport(network.topology.num_nodes)
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
        if interval < max(1, self.current_interval):
            raise NetworkError(
                f"cannot send into past interval {interval} (current {self.current_interval})"
            )
        if interval > self.num_intervals:
            # Beyond the phase: legal no-op, the frame evaporates
            # (matches "ignored after the L-th interval").
            return False
        network = self.network
        slot = (sender, interval)
        used = self._payloads_per_interval.get(slot, 0)
        if used >= network.config.network.forwarding_capacity:
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
        view = network._secure_view()
        indptr, row_cols, row_keys = view._indptr, view._cols, view._keys
        known = 0 <= sender < len(indptr) - 1
        start, stop = (indptr[sender], indptr[sender + 1]) if known else (0, 0)
        nodes = network.nodes
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
                # receiver runs honest accept logic at all.
                verdict = receiver == BASE_STATION_ID or receiver in nodes
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
        self._payloads_per_interval[slot] = used + 1

        origin = claimed_sender if claimed_sender is not None else sender
        batch = _SendBatch(self, origin, payload)
        wire = batch.payload_wire
        metrics = network.metrics
        tracer = network.tracer
        loss_rate = network.config.network.loss_rate
        injector = network.fault_injector
        if injector is not None:
            if injector.node_down(sender):
                # A crashed sender transmits nothing: no airtime burned,
                # but the frames the protocol wanted on the air are gone.
                metrics.messages_lost += len(targets)
                return True
            # A sender whose clock escaped the guard band lands its frames
            # whole intervals late; beyond the phase they are simply gone.
            shift = injector.clock_interval_shift(sender)
            late = interval + shift > self.num_intervals
            interval += shift
        rows: List[Tuple[int, int, bool]] = []
        repeats = 0
        for target in targets:
            receiver = target[0]
            if injector is not None and (
                injector.node_down(receiver) or injector.link_blocked(sender, receiver)
            ):
                # Dead receiver or severed link: the sender cannot know
                # and transmits anyway, so airtime is charged in full.
                metrics.record_lost_transmission(sender, wire)
                continue
            # Residual link loss (extension; off by default — see
            # NetworkConfig.loss_rate): an independent draw **per
            # receiver**, as each receiver's radio fades independently.
            # The sender still burns the airtime.
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
            rows.append(target)
            if tracer is not None:
                tracer.record(
                    "transmission",
                    phase=self.name,
                    interval=interval,
                    sender=sender,
                    claimed=origin,
                    receiver=receiver,
                    payload=type(payload).__name__,
                    key_index=target[1],
                    verified=target[2],
                )
            if injector is not None:
                dup = injector.duplicate_probability(receiver)
                if dup > 0.0 and injector.rng.random() < dup:
                    # Retransmit-with-lost-ack artefact: the receiver
                    # hears an identical second copy, and only its side
                    # pays; protocol logic must stay idempotent under it.
                    rows.append(target)
                    repeats += 1
                    metrics.record_fault("duplicate")
        if rows:
            row_receivers, row_key_indices, verdicts = zip(*rows)
            self.transport.deposit_send(
                interval, batch, row_receivers, row_key_indices, verdicts
            )
            metrics.record_send(sender, row_receivers, wire, repeats)
        return True

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
    def inbox(self, receiver: int, interval: int) -> List[Delivery]:
        """Frames delivered to ``receiver`` during ``interval``.

        Readable once the interval has begun.  Returns all frames; honest
        protocol logic must filter on ``Delivery.verified``.
        """
        if interval > self.current_interval:
            raise NetworkError(
                f"interval {interval} has not begun (current {self.current_interval})"
            )
        return self.transport.frames(interval, receiver)

    def verified_inbox(self, receiver: int, interval: int) -> List[Delivery]:
        return [d for d in self.inbox(receiver, interval) if d.verified]

    def arrival_map(self, interval: int) -> Mapping[int, Sequence["Delivery"]]:
        """Read-only view of who received frames during ``interval``.

        The per-interval delivery loops are O(nodes x depth_bound), and
        on large topologies the vast majority of polls find an empty
        inbox.  This map lets a loop test membership (one dict lookup)
        before paying for an :meth:`inbox` copy.  Same readability gate
        as :meth:`inbox`; callers must treat the mapping as frozen.
        """
        if interval > self.current_interval:
            raise NetworkError(
                f"interval {interval} has not begun (current {self.current_interval})"
            )
        return self.transport.arrivals(interval)


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
        from ..crypto.authenticated_broadcast import BroadcastAuthority

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
        self.nodes: Dict[int, HonestNode] = {}
        # The five per-node scalars live in parallel arrays; honest
        # nodes are thin views over them (repro.core.node_columns).
        self.node_columns = NodeColumns(topology.num_nodes)
        anchor = self.authority.anchor
        for node_id in topology.sensor_ids:
            if node_id in self.malicious_ids:
                continue
            self.nodes[node_id] = HonestNode(
                node_id=node_id,
                material=registry.sensor_deployment_material(node_id),
                clock=self.clocks[node_id],
                broadcast_anchor=anchor,
                columns=self.node_columns,
            )

        self._adversary_pool_indices: Optional[FrozenSet[int]] = None
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

    def adversary_pool_indices(self) -> FrozenSet[int]:
        """Union of all compromised rings: the keys the adversary can use."""
        if self._adversary_pool_indices is None:
            indices: Set[int] = set()
            for node_id in self.malicious_ids:
                indices.update(self.registry.ring(node_id).indices)
            self._adversary_pool_indices = frozenset(indices)
        return self._adversary_pool_indices

    def sender_possesses_key(self, sender: int, key_index: int) -> bool:
        """Whether ``sender`` can compute MACs under pool key ``key_index``.

        Honest sensors use only their own ring; the base station holds
        everything; compromised sensors share the adversary's pooled loot
        (the attack model lets malicious sensors collude freely).
        """
        if sender == BASE_STATION_ID:
            return True
        if sender in self.malicious_ids:
            return key_index in self.adversary_pool_indices()
        return key_index in self.registry.ring(sender)

    @property
    def honest_ids(self) -> List[int]:
        """Honest, non-revoked sensors (the nodes that still participate)."""
        revoked = self.registry.revoked_sensors
        return [i for i in self.nodes if i not in revoked]

    @property
    def participating_ids(self) -> List[int]:
        """All non-revoked sensors, malicious included."""
        revoked = self.registry.revoked_sensors
        return [
            i
            for i in self.topology.sensor_ids
            if i not in revoked
        ]

    def honest_node(self, node_id: int) -> HonestNode:
        if node_id not in self.nodes:
            raise NetworkError(f"node {node_id} is not an honest sensor")
        return self.nodes[node_id]

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
        """``(other, edge key)`` for each of ``others``, in order, whose
        link to ``node_id`` is usable now (the
        :meth:`KeyRegistry.link_usable` test, answered from the view)."""
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
            if receiver not in self.nodes:
                return False  # malicious or revoked receivers have no honest accept logic
            if not self.nodes[receiver].holds_pool_key(key_index):
                return False
        return True

    def authenticated_flood(self, *payload: Any) -> Tuple[Any, ...]:
        """Flood an authenticated base-station message to all honest
        sensors (the service of Ning et al. [20]).

        Uses the real hash-chain construction: a wave-1 MAC'd message
        followed by a wave-2 key disclosure, verified per sensor.  Costs
        one flooding round.  Raises :class:`ProtocolError` if any honest
        verifier rejects — that would mean our authority broke its own
        chain, which the proofs (and tests) treat as impossible.
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
        if injector is not None:
            injector.on_broadcast(round_index)
            component = self.fault_aware_secure_component()
        else:
            component = self.honest_secure_component()
        # Nothing below mutates revocation state, so one synced view
        # serves every sensor's degree lookup.
        view = self._secure_view()
        for node_id, node in self.nodes.items():
            if injector is not None and (
                node_id not in component
                or injector.node_down(node_id)
                or injector.broadcast_blocked(round_index, node_id)
            ):
                # The sensor misses a control message it knows it should
                # have seen (its chain index will jump at the next round
                # it does receive), so it abstains from vetoing rather
                # than acting on a stale view of the execution.
                node.crash_suspected = True
                if metrics is not None:
                    metrics.messages_lost += 1
                    metrics.record_fault("broadcast-miss")
                continue
            if node_id not in component:
                continue  # partitioned sensors cannot be reached (Section III)
            node.verifier.receive_message(message)
            accepted = node.verifier.receive_disclosure(disclosure)
            if accepted != tuple(payload):
                raise ProtocolError(
                    f"honest sensor {node_id} rejected an authentic broadcast"
                )
            if metrics is not None:
                metrics.bytes_sent[node_id] += wire * view.secure_degree(node_id)
                metrics.bytes_received[node_id] += wire
        if metrics is not None:
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

    **Storage is CSR, not dicts.**  Node ids are contiguous, so the
    radio adjacency and the per-edge current keys live in three flat
    arrays — ``_indptr``/``_cols`` (neighbour rows, frozen in
    ``Topology.neighbors`` iteration order) and ``_keys``
    (parallel current-key row, ``-1`` = no usable key).  That replaces
    the per-node neighbour tuples, the edge-key dict and the
    million-set secure adjacency of the dict-based view: at 1M nodes
    the whole secure topology is ~56 MB of arrays instead of several
    hundred MB of containers, and reachability/depth queries walk the
    rows directly.
    """

    __slots__ = (
        "network",
        "_epoch",
        "_indptr",
        "_cols",
        "_keys",
        "_keyed_edges",
        "_component",
        "_depth_bound",
        "_neighbors_memo",
        "_degrees",
    )

    def __init__(self, network: Network) -> None:
        self.network = network
        topology = network.topology
        registry = network.registry
        edges = list(topology.edges())
        # Transient (a < b) edge -> current-key map feeding the CSR fill
        # below; freed when __init__ returns.
        edge_key: Dict[Tuple[int, int], Optional[int]] = {}
        if registry.revocation_epoch == 0 and edges:
            # Nothing revoked yet: every edge key is the epoch-zero
            # first-shared index, computed in bulk over region-sharded
            # fork workers instead of one ring intersection per edge.
            bulk = registry.ring_table.edge_keys(
                [e[0] for e in edges], [e[1] for e in edges]
            )
            for edge, index in zip(edges, bulk.tolist()):
                edge_key[edge] = None if index < 0 else index
        else:
            revocation = registry.revocation
            for edge in edges:
                a, b = edge
                index = None
                for candidate in registry.shared_key_indices(a, b):
                    if not revocation.is_key_revoked(candidate):
                        index = candidate
                        break
                edge_key[edge] = index
        # CSR radio adjacency: node ids are contiguous (range(num_nodes)),
        # so ``cols[indptr[n]:indptr[n + 1]]`` is node n's neighbour row
        # and ``keys`` the parallel current-edge-key row (-1 = no usable
        # key).  Rows are frozen in ``Topology.neighbors`` iteration
        # order (a frozenset of ints, deterministic across processes):
        # filtering a row in order fixes the secure_neighbors lists —
        # and hence per-receiver RNG draw order.
        indptr = array("q", [0])
        cols = array("i")
        keys = array("i")
        for node in topology.node_ids:
            for other in topology.neighbors(node):
                cols.append(other)
                pair = (node, other) if node < other else (other, node)
                index = edge_key[pair]
                keys.append(-1 if index is None else index)
            indptr.append(len(cols))
        self._indptr = indptr
        self._cols = cols
        self._keys = keys
        # Inverted key -> edges map, needed only to replay key-revocation
        # events; built lazily on the first sync (fully honest runs never
        # pay for it).
        self._keyed_edges: Optional[Dict[int, Set[Tuple[int, int]]]] = None
        self._epoch = registry.revocation_epoch
        self._component: Optional[Set[int]] = None
        self._depth_bound: Optional[int] = None
        # Per-epoch secure-neighbour tuples: within one revocation epoch
        # the filter inputs are constant, so repeat senders reuse one
        # filtering pass per node.
        self._neighbors_memo: Dict[int, Tuple[int, ...]] = {}
        # Per-epoch secure-degree column (-1 = unknown): floods ask for
        # every node's degree, and a count does not need the memo tuple.
        self._degrees: Optional[array] = None

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def _ensure_keyed_edges(self) -> Dict[int, Set[Tuple[int, int]]]:
        keyed = self._keyed_edges
        if keyed is None:
            keyed = defaultdict(set)
            indptr, cols, keys = self._indptr, self._cols, self._keys
            for a in range(len(indptr) - 1):
                for pos in range(indptr[a], indptr[a + 1]):
                    b = cols[pos]
                    if b > a and keys[pos] >= 0:
                        keyed[keys[pos]].add((a, b))
            self._keyed_edges = keyed
        return keyed

    def _set_edge_key(self, a: int, b: int, index: int) -> None:
        """Write one radio edge's current key into both directed rows."""
        indptr, cols, keys = self._indptr, self._cols, self._keys
        keys[cols.index(b, indptr[a], indptr[a + 1])] = index
        keys[cols.index(a, indptr[b], indptr[b + 1])] = index

    def sync(self) -> None:
        """Apply revocation-log entries recorded since the last query."""
        registry = self.network.registry
        log = registry.revocation.log
        if len(log) == self._epoch:
            return
        revocation = registry.revocation
        keyed_edges = self._ensure_keyed_edges()
        for event in log[self._epoch:]:
            if event.kind != "key":
                continue  # endpoint revocation is checked live per query
            for edge in keyed_edges.pop(event.target, ()):
                a, b = edge
                index = None
                for candidate in registry.shared_key_indices(a, b):
                    if not revocation.is_key_revoked(candidate):
                        index = candidate
                        break
                self._set_edge_key(a, b, -1 if index is None else index)
                if index is not None:
                    keyed_edges[index].add(edge)
        self._epoch = len(log)
        self._component = None
        self._depth_bound = None
        self._neighbors_memo.clear()
        self._degrees = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def edge_key_index(self, a: int, b: int) -> Optional[int]:
        indptr = self._indptr
        if not 0 <= a < len(indptr) - 1:
            return self.network.registry.edge_key_index(a, b)
        try:
            pos = self._cols.index(b, indptr[a], indptr[a + 1])
        except ValueError:
            # Non-radio pair (wormhole sends): fall through to the
            # registry's direct computation.
            return self.network.registry.edge_key_index(a, b)
        index = self._keys[pos]
        return None if index < 0 else index

    def usable_links(self, node_id: int, others: Iterable[int]) -> List[Tuple[int, int]]:
        is_revoked = self.network.registry.revocation.is_sensor_revoked
        if node_id != BASE_STATION_ID and is_revoked(node_id):
            return []
        links = []
        for other in others:
            if other != BASE_STATION_ID and is_revoked(other):
                continue
            index = self.edge_key_index(node_id, other)
            if index is not None:
                links.append((other, index))
        return links

    def secure_links(self, node_id: int) -> List[Tuple[int, int]]:
        """(neighbour, edge key) per currently usable link, in row order."""
        revocation = self.network.registry.revocation
        if node_id != BASE_STATION_ID and revocation.is_sensor_revoked(node_id):
            return []
        cols, keys = self._cols, self._keys
        is_revoked = revocation.is_sensor_revoked
        return [
            (cols[pos], keys[pos])
            for pos in range(self._indptr[node_id], self._indptr[node_id + 1])
            if keys[pos] >= 0 and (cols[pos] == BASE_STATION_ID or not is_revoked(cols[pos]))
        ]

    def secure_neighbors(self, node_id: int) -> List[int]:
        memo = self._neighbors_memo.get(node_id)
        if memo is None:
            memo = tuple(other for other, _ in self.secure_links(node_id))
            self._neighbors_memo[node_id] = memo
        return list(memo)

    def secure_degree(self, node_id: int) -> int:
        """``len(secure_neighbors(node_id))`` without the list or tuple."""
        memo = self._neighbors_memo.get(node_id)
        if memo is not None:
            return len(memo)
        degrees = self._degrees
        if degrees is None:
            degrees = self._degrees = array("i", [-1]) * (len(self._indptr) - 1)
        cached = degrees[node_id]
        if cached >= 0:
            return cached
        revocation = self.network.registry.revocation
        if node_id != BASE_STATION_ID and revocation.is_sensor_revoked(node_id):
            count = 0
        else:
            cols, keys = self._cols, self._keys
            start, stop = self._indptr[node_id], self._indptr[node_id + 1]
            if revocation.revoked_sensors:
                is_revoked = revocation.is_sensor_revoked
                count = sum(
                    1
                    for pos in range(start, stop)
                    if keys[pos] >= 0
                    and (cols[pos] == BASE_STATION_ID or not is_revoked(cols[pos]))
                )
            else:
                count = sum(1 for pos in range(start, stop) if keys[pos] >= 0)
        degrees[node_id] = count
        return count

    def _allowed_honest(self) -> Set[int]:
        network = self.network
        revoked = network.registry.revocation.revoked_sensors
        allowed = {i for i in network.nodes if i not in revoked}
        allowed.add(BASE_STATION_ID)
        return allowed

    def honest_secure_component(self) -> Set[int]:
        if self._component is None:
            # Reachability over the CSR rows restricted to keyed edges
            # and allowed endpoints (a reachability set is
            # traversal-order independent).
            allowed = self._allowed_honest()
            indptr, cols, keys = self._indptr, self._cols, self._keys
            component: Set[int] = {BASE_STATION_ID}
            frontier = [BASE_STATION_ID]
            while frontier:
                current = frontier.pop()
                for pos in range(indptr[current], indptr[current + 1]):
                    if keys[pos] < 0:
                        continue
                    neighbor = cols[pos]
                    if neighbor in allowed and neighbor not in component:
                        component.add(neighbor)
                        frontier.append(neighbor)
            self._component = component
        # Callers may mutate the returned set, so hand out a copy.
        return set(self._component)

    def fault_aware_component(self, injector: Any) -> Set[int]:
        allowed = {
            i
            for i in self._allowed_honest()
            if i == BASE_STATION_ID or not injector.node_down(i)
        }
        # Injector state changes per interval, so this is never cached —
        # but it still runs on the maintained key rows.
        indptr, cols, keys = self._indptr, self._cols, self._keys
        component: Set[int] = {BASE_STATION_ID}
        frontier = [BASE_STATION_ID]
        while frontier:
            current = frontier.pop()
            for pos in range(indptr[current], indptr[current + 1]):
                if keys[pos] < 0:
                    continue
                neighbor = cols[pos]
                if (
                    neighbor in allowed
                    and neighbor not in component
                    and not injector.link_blocked(current, neighbor)
                ):
                    component.add(neighbor)
                    frontier.append(neighbor)
        return component

    def effective_depth_bound(self) -> int:
        if self._depth_bound is None:
            component = self.honest_secure_component()
            # Breadth-first depths over the keyed CSR rows (BFS depth is
            # the shortest-path length, independent of visit order).
            indptr, cols, keys = self._indptr, self._cols, self._keys
            depths: Dict[int, int] = {BASE_STATION_ID: 0}
            frontier = deque((BASE_STATION_ID,))
            while frontier:
                current = frontier.popleft()
                next_depth = depths[current] + 1
                for pos in range(indptr[current], indptr[current + 1]):
                    if keys[pos] < 0:
                        continue
                    neighbor = cols[pos]
                    if neighbor in component and neighbor not in depths:
                        depths[neighbor] = next_depth
                        frontier.append(neighbor)
            sensor_depths = [
                d for node, d in depths.items() if node != BASE_STATION_ID
            ]
            if not sensor_depths:
                raise NetworkError("honest secure component is empty")
            self._depth_bound = max(sensor_depths)
        return self._depth_bound
