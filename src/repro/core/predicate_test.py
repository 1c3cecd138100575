"""The keyed predicate test (Section VI-A, adopted from Yu [29]).

The test asks: *is there at least one sensor that (i) holds symmetric key
``K`` and (ii) satisfies a predicate over its local audit state?*

Mechanics (all real crypto in this implementation):

1. The base station floods, via authenticated broadcast,
   ``<index of K, predicate, nonce N, H(MAC_K(N))>``.
2. A sensor holding ``K`` that satisfies the predicate computes the
   "yes" reply ``MAC_K(N)`` and broadcasts it locally.
3. Every sensor — crucially, *without* holding ``K`` — can check a
   candidate reply by hashing it and comparing against the pre-announced
   ``H(MAC_K(N))``.  A sensor relays the first valid reply it sees and
   ignores everything else, so spurious replies die one hop from their
   source and choking is impossible during pinpointing.

Theorem 3 semantics follow: an honest holder satisfying the predicate
guarantees success; if no honest holder satisfies it and no malicious
sensor holds ``K``, the test cannot succeed (producing ``MAC_K(N)``
requires ``K``).

The predicate vocabulary below covers every question Figures 5/6 and the
junk-triggered variants ask of the distributed audit trail.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Set, Tuple, Union, get_type_hints

from ..crypto.encoding import encode_parts
from ..crypto.hash import oneway_hash
from ..crypto.mac import compute_mac
from ..errors import ProtocolError
from ..keys.registry import BASE_STATION_ID
from ..net.message import PredicateReply
from ..net.network import Network
from ..net.node import AuditLog, digest_equal, value_at_most
from .contexts import PredicateTestContext
from .phase_state import HonestStep, honest_step


# ----------------------------------------------------------------------
# Predicate vocabulary
# ----------------------------------------------------------------------
# Each predicate is one audit-log query: ``satisfied_by`` returns the
# candidates whose own rows satisfy it (``position == p``, edge key in
# ``[key_low, key_high]``, and a value bound or an exact digest on the
# message).
def _id_range(candidates, id_low: int, id_high: int) -> Set[int]:
    return {c for c in candidates if id_low <= c <= id_high}


@dataclass(frozen=True)
class AggForwarded:
    """Figure 5 predicate, keyed on a *sensor key*: while at ``level``
    the sensor forwarded (to a parent) a message of ``instance`` with
    value <= ``value_bound`` over an out-edge key with pool index in
    ``[key_low, key_high]``."""

    level: int
    value_bound: float
    key_low: int
    key_high: int
    instance: int = 0

    def satisfied_by(self, audit: AuditLog, candidates, depth_bound: int) -> Set[int]:
        return audit.aggregation_sends.query(
            candidates, self.level, self.key_low, self.key_high,
            value_at_most(self.value_bound, self.instance),
        )

    def encode(self) -> bytes:
        return encode_parts(
            "agg-forwarded", self.level, self.value_bound, self.key_low,
            self.key_high, self.instance,
        )


@dataclass(frozen=True)
class AggReceived:
    """Figure 6 predicate, keyed on an *edge key* ``key_index``: the
    sensor's id lies in ``[id_low, id_high]`` and it received, over that
    edge key, a report of ``instance`` with value <= ``value_bound`` from
    a child at ``child_level`` (i.e. during aggregation interval
    ``L - child_level + 1``)."""

    id_low: int
    id_high: int
    value_bound: float
    child_level: int
    key_index: int
    instance: int = 0

    def satisfied_by(self, audit: AuditLog, candidates, depth_bound: int) -> Set[int]:
        return audit.aggregation_receipts.query(
            _id_range(candidates, self.id_low, self.id_high),
            depth_bound - self.child_level + 1, self.key_index, self.key_index,
            value_at_most(self.value_bound, self.instance),
        )

    def encode(self) -> bytes:
        return encode_parts(
            "agg-received", self.id_low, self.id_high, self.value_bound,
            self.child_level, self.key_index, self.instance,
        )


@dataclass(frozen=True)
class AggSentExact:
    """Junk-triggered (aggregation) analogue of Figure 6, keyed on an
    edge key: the sensor forwarded the byte-identical message ``digest``
    while at ``level`` over ``key_index``."""

    id_low: int
    id_high: int
    digest: bytes
    level: int
    key_index: int

    def satisfied_by(self, audit: AuditLog, candidates, depth_bound: int) -> Set[int]:
        return audit.aggregation_sends.query(
            _id_range(candidates, self.id_low, self.id_high),
            self.level, self.key_index, self.key_index, digest_equal(self.digest),
        )

    def encode(self) -> bytes:
        return encode_parts(
            "agg-sent-exact", self.id_low, self.id_high, self.digest,
            self.level, self.key_index,
        )


@dataclass(frozen=True)
class AggReceivedExact:
    """Junk-triggered (aggregation) analogue of Figure 5, keyed on a
    sensor key: the sensor received the byte-identical message in
    aggregation ``interval`` over an in-edge key in the range."""

    digest: bytes
    interval: int
    key_low: int
    key_high: int

    def satisfied_by(self, audit: AuditLog, candidates, depth_bound: int) -> Set[int]:
        return audit.aggregation_receipts.query(
            candidates, self.interval, self.key_low, self.key_high,
            digest_equal(self.digest),
        )

    def encode(self) -> bytes:
        return encode_parts(
            "agg-received-exact", self.digest, self.interval, self.key_low, self.key_high
        )


@dataclass(frozen=True)
class ConfSentExact:
    """Junk-triggered (confirmation) analogue of Figure 6, keyed on an
    edge key: the sensor sent/forwarded the byte-identical veto in
    confirmation ``interval`` over ``key_index``."""

    id_low: int
    id_high: int
    digest: bytes
    interval: int
    key_index: int

    def satisfied_by(self, audit: AuditLog, candidates, depth_bound: int) -> Set[int]:
        return audit.confirmation_sends.query(
            _id_range(candidates, self.id_low, self.id_high),
            self.interval, self.key_index, self.key_index, digest_equal(self.digest),
        )

    def encode(self) -> bytes:
        return encode_parts(
            "conf-sent-exact", self.id_low, self.id_high, self.digest,
            self.interval, self.key_index,
        )


@dataclass(frozen=True)
class ConfReceivedExact:
    """Junk-triggered (confirmation) analogue of Figure 5, keyed on a
    sensor key: the sensor received the byte-identical veto in
    confirmation ``interval`` over an in-edge key in the range."""

    digest: bytes
    interval: int
    key_low: int
    key_high: int

    def satisfied_by(self, audit: AuditLog, candidates, depth_bound: int) -> Set[int]:
        return audit.confirmation_receipts.query(
            candidates, self.interval, self.key_low, self.key_high,
            digest_equal(self.digest),
        )

    def encode(self) -> bytes:
        return encode_parts(
            "conf-received-exact", self.digest, self.interval, self.key_low, self.key_high
        )


Predicate = Union[
    AggForwarded,
    AggReceived,
    AggSentExact,
    AggReceivedExact,
    ConfSentExact,
    ConfReceivedExact,
]


#: Encoding tag -> predicate type; each type encodes its dataclass
#: fields in declaration order after the tag.
_PREDICATE_TAGS = {
    "agg-forwarded": AggForwarded,
    "agg-received": AggReceived,
    "agg-sent-exact": AggSentExact,
    "agg-received-exact": AggReceivedExact,
    "conf-sent-exact": ConfSentExact,
    "conf-received-exact": ConfReceivedExact,
}

#: Field type -> the decoded value types it admits.  An ``int`` is
#: never a ``bool``; a ``float`` bound may arrive as an ``int``.
_FIELD_TYPES = {int: (int,), float: (float, int), bytes: (bytes,)}


def _field_spec(predicate_type) -> Tuple[Tuple[str, type, Tuple[type, ...]], ...]:
    """``(name, type, admitted value types)`` per field, in declaration
    order, with the annotations resolved to classes."""
    hints = get_type_hints(predicate_type)
    return tuple(
        (field.name, hints[field.name], _FIELD_TYPES[hints[field.name]])
        for field in fields(predicate_type)
    )


#: Encoding tag -> the field spec :func:`decode_predicate` checks.
_PREDICATE_FIELDS = {tag: _field_spec(cls) for tag, cls in _PREDICATE_TAGS.items()}


def decode_predicate(data: bytes) -> Predicate:
    """Invert :meth:`encode` for every predicate type.

    The wire carries predicates as their canonical encodings (what the
    challenge flood announces); service node hosts reconstruct them here
    to evaluate against their local audit log.  Every field is
    type-checked, so an ill-typed predicate fails here with
    :class:`ProtocolError` rather than later, at evaluation.
    """
    from ..crypto.encoding import decode_parts

    parts = decode_parts(data)
    if not parts or not isinstance(parts[0], str):
        raise ProtocolError(f"predicate encoding without a tag: {parts!r}")
    tag, values = parts[0], parts[1:]
    spec = _PREDICATE_FIELDS.get(tag)
    if spec is None:
        raise ProtocolError(f"unknown predicate tag {tag!r}")
    if len(values) != len(spec):
        raise ProtocolError(f"malformed {tag!r} predicate: {parts!r}")
    for (name, declared, admitted), value in zip(spec, values):
        if type(value) not in admitted:
            raise ProtocolError(
                f"{tag!r} predicate field {name!r} must be {declared.__name__}, "
                f"got {type(value).__name__}"
            )
    return _PREDICATE_TAGS[tag](*values)


# ----------------------------------------------------------------------
# Protocol runner
# ----------------------------------------------------------------------
def reply_mac_for(key: bytes, nonce: bytes) -> bytes:
    """The correct "yes" reply ``MAC_K(N)``."""
    return compute_mac(key, "predicate-reply", nonce)


def run_keyed_predicate_test(
    network: Network,
    adversary,
    key_ref: Tuple[str, int],
    predicate: Predicate,
    nonce: bytes,
    depth_bound: int,
) -> bool:
    """Run one keyed predicate test; returns whether it *succeeded*.

    ``key_ref`` is ``("sensor", id)`` or ``("pool", index)``.  Costs two
    flooding rounds (challenge + reply), accounted in metrics.
    """
    registry = network.registry
    kind, ident = key_ref
    if kind == "sensor":
        key = registry.sensor_key(ident)
    elif kind == "pool":
        key = registry.pool_key(ident)
    else:
        raise ProtocolError(f"unknown key reference kind {kind!r}")

    expected_reply = reply_mac_for(key, nonce)
    reply_hash = oneway_hash(expected_reply)
    predicate_bytes = predicate.encode()

    # Round 1: the authenticated challenge.
    network.authenticated_flood(
        "predicate-test", kind, ident, predicate_bytes, nonce, reply_hash
    )

    # Round 2: the reply flood.
    phase = network.new_phase("predicate-reply", depth_bound)
    ctx = PredicateTestContext(
        network=network,
        phase=phase,
        depth_bound=depth_bound,
        key_ref=key_ref,
        predicate_bytes=predicate_bytes,
        nonce=nonce,
        reply_hash=reply_hash,
        predicate=predicate,
    )

    relay = honest_step(
        network, phase, ReplyRelay, network.honest_id_set(),
        key_ref, predicate_bytes, nonce, reply_hash,
    )

    for k in phase.intervals():
        if adversary is not None:
            for node_id in sorted(network.malicious_ids):
                adversary.predtest_interval(ctx, node_id, k)

        relay.tick(k)
        relay.deliver(k)

    network.metrics.record_flooding_rounds(1.0, "predicate-reply-flood")
    network.metrics.predicate_tests += 1
    return relay.heard


def first_valid_replies(
    phase, k: int, reply_hash: bytes, ids, relayed
) -> Dict[int, PredicateReply]:
    """The first hash-valid reply each listener heard in interval ``k``,
    in one sweep over the interval's rows.  Listeners are the base
    station and ``ids``, less ``relayed``.

    The hash check is the *only* gate — the reply is
    content-authenticated, so even a frame with an unverifiable edge MAC
    counts if its body hashes correctly.  Each distinct reply is hashed
    once, however many rows carry it.
    """
    receivers, batch_ids, batches, _, _ = phase.rows(k)
    found: Dict[int, PredicateReply] = {}
    batch_valid: Dict[int, bool] = {}
    mac_valid: Dict[bytes, bool] = {}
    for receiver, batch_id in zip(receivers, batch_ids):
        if (
            receiver in found
            or receiver in relayed
            or (receiver not in ids and receiver != BASE_STATION_ID)
        ):
            continue
        valid = batch_valid.get(batch_id)
        if valid is None:
            payload = batches[batch_id].payload
            valid = isinstance(payload, PredicateReply)
            if valid:
                valid = mac_valid.get(payload.mac)
                if valid is None:
                    valid = mac_valid[payload.mac] = oneway_hash(payload.mac) == reply_hash
            batch_valid[batch_id] = valid
        if valid:
            found[receiver] = batches[batch_id].payload
    return found


class ReplyRelay(HonestStep):
    """The reply flood's honest step (one-time relay of the first valid
    reply).

    Building it asks the network's audit log once which holders among
    the step's ids satisfy the predicate, each over its *own* rows — the
    distributed-audit property the pinpointing protocols rely on — and
    queues the "yes" reply of every one that does.  The predicate
    arrives as its canonical encoding, exactly what the challenge flood
    announced.

    Each interval, every queued sensor sends in one
    :meth:`~repro.net.network.PhaseContext.broadcast` block, and one
    :func:`first_valid_replies` sweep finds the listeners that now
    relay.  A sensor listens while it is one of the step's ``ids`` and
    is not in ``relayed``, which grows with the flood.  ``ids`` is a set
    (inline, the network's per-epoch
    :meth:`~repro.net.network.Network.honest_id_set`), so building the
    step costs the key's holders, not the population.  The base station
    listens in the same sweep until it hears (it never relays):
    ``heard`` records whether a valid reply reached it, which is whether
    the test succeeded.  Node hosts never hold the base station's
    frames, so there it simply stays unheard.
    """

    __slots__ = ("ids", "reply_hash", "pending", "relayed", "heard")

    def __init__(self, network, phase, ids, key_ref, predicate_bytes, nonce,
                 reply_hash) -> None:
        super().__init__(network, phase)
        self.ids = ids
        self.reply_hash = reply_hash
        predicate = decode_predicate(predicate_bytes)
        kind, ident = key_ref
        holders = [ident] if kind == "sensor" else network.registry.holders(ident)
        satisfied = predicate.satisfied_by(
            network.audit, {h for h in holders if h in ids}, phase.num_intervals
        )
        self.pending: Dict[int, PredicateReply] = {}
        for holder in holders:
            if holder in satisfied:
                self.pending[holder] = PredicateReply(
                    mac=reply_mac_for(node_key(network, key_ref, holder), nonce)
                )
        # Sensors that queued a reply, and the base station once heard.
        self.relayed: Set[int] = set(self.pending)
        self.heard = False

    def tick(self, k: int) -> None:
        pending, self.pending = self.pending, {}
        if pending:
            senders = sorted(pending)
            self.phase.broadcast(senders, [pending[s] for s in senders], k)

    def deliver(self, k: int) -> None:
        """Listeners relay the first valid reply they heard."""
        found = first_valid_replies(self.phase, k, self.reply_hash, self.ids, self.relayed)
        if found:
            self.relayed.update(found)
            if found.pop(BASE_STATION_ID, None) is not None:
                self.heard = True
            self.pending.update(found)


def node_key(network: Network, key_ref: Tuple[str, int], node_id: int) -> bytes:
    """The key honest sensor ``node_id`` uses to build its reply — taken
    from its *own* ring or sensor key, so a coding error that let a
    non-holder reply raises rather than passes silently."""
    kind, ident = key_ref
    if kind == "sensor":
        if node_id != ident:
            raise ProtocolError(f"sensor {node_id} asked to reply for {ident}")
        return network.registry.sensor_key(node_id)
    return network.registry.ring(node_id).key(ident)
