"""Protocol payloads and their byte-accurate wire sizes.

Sizes follow the paper's accounting (Section IX): 8-byte MACs, 8-byte
values, 2-byte ids/levels.  ``wire_size`` is what the metrics layer
charges per transmission (plus the link-layer edge MAC, charged by the
network).

``message_digest`` gives the canonical identity of a message — the
pinpointing predicates of Section VI refer to "the message" being
byte-identical along a junk trail, and a 32-byte digest keeps predicates
compact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple, Union

from ..crypto.encoding import encode_parts
from ..crypto.hash import oneway_hash
from ..crypto.mac import DEFAULT_MAC_LENGTH

ID_BYTES = 2
LEVEL_BYTES = 1
VALUE_BYTES = 8
MAC_BYTES = DEFAULT_MAC_LENGTH


@dataclass(frozen=True)
class ReadingMessage:
    """Aggregation-phase message ``<id, v, MAC_id(v || nonce)>`` (§IV-B).

    ``instance`` distinguishes parallel MIN instances when COUNT/SUM
    queries run ``m`` synopses at once (§VIII); plain MIN queries use
    instance 0.
    """

    sensor_id: int
    value: float
    mac: bytes
    instance: int = 0

    def mac_parts(self, nonce: bytes) -> Tuple[Any, ...]:
        return (self.sensor_id, self.instance, self.value, nonce)

    def canonical_bytes(self) -> bytes:
        return encode_parts("reading", self.sensor_id, self.instance, self.value, self.mac)

    def wire_size(self) -> int:
        return ID_BYTES + VALUE_BYTES + len(self.mac) + 1  # +1 instance tag

    def __lt__(self, other: "ReadingMessage") -> bool:
        """Order by value, breaking ties by sensor id then MAC bytes.

        A deterministic total order makes "forward the smallest" and
        every test reproducible even when two sensors report equal
        readings.
        """
        return (self.value, self.sensor_id, self.mac) < (
            other.value,
            other.sensor_id,
            other.mac,
        )


@dataclass(frozen=True)
class VetoMessage:
    """Confirmation-phase veto ``<id, v, level, MAC_id(v||level||nonce)>`` (§IV-C)."""

    sensor_id: int
    value: float
    level: int
    mac: bytes
    instance: int = 0

    def mac_parts(self, nonce: bytes) -> Tuple[Any, ...]:
        return (self.sensor_id, self.instance, self.value, self.level, nonce)

    def canonical_bytes(self) -> bytes:
        return encode_parts(
            "veto", self.sensor_id, self.instance, self.value, self.level, self.mac
        )

    def wire_size(self) -> int:
        return ID_BYTES + VALUE_BYTES + LEVEL_BYTES + len(self.mac) + 1


@dataclass(frozen=True)
class TreeBeacon:
    """Tree-formation flood message.

    In VMAT the level is implied by the *arrival interval*; ``hop_count``
    is carried only so the naive (attackable) hop-count variant and the
    wormhole ablation can be expressed with the same frame.
    """

    origin: int
    hop_count: int

    def canonical_bytes(self) -> bytes:
        return encode_parts("tree-beacon", self.origin, self.hop_count)

    def wire_size(self) -> int:
        return ID_BYTES + 1


@dataclass(frozen=True)
class PredicateChallenge:
    """Wave the base station floods for a keyed predicate test (§VI-A):
    ``<index of K, predicate, nonce N, H(MAC_K(N))>``.

    ``key_ref`` identifies the key: ``("pool", index)`` or
    ``("sensor", id)`` — the test is run both on edge keys (Figure 6) and
    on sensor keys (Figure 5).
    """

    key_ref: Tuple[str, int]
    predicate_bytes: bytes
    nonce: bytes
    reply_hash: bytes

    def canonical_bytes(self) -> bytes:
        return encode_parts(
            "predicate-challenge",
            self.key_ref,
            self.predicate_bytes,
            self.nonce,
            self.reply_hash,
        )

    def wire_size(self) -> int:
        # key ref (3) + predicate encoding + nonce + 32-byte hash
        return 3 + len(self.predicate_bytes) + len(self.nonce) + len(self.reply_hash)


@dataclass(frozen=True)
class PredicateReply:
    """The "yes" reply ``MAC_K(N)``: verifiable by every relay via the
    pre-announced hash, so spurious replies die one hop from their source."""

    mac: bytes

    def canonical_bytes(self) -> bytes:
        return encode_parts("predicate-reply", self.mac)

    def wire_size(self) -> int:
        return len(self.mac)


@dataclass(frozen=True)
class SynopsisBundle:
    """One radio transmission carrying every parallel MIN instance.

    COUNT/SUM queries run ``m`` MIN instances at once (§VIII); sensors
    bundle the per-instance messages into a single payload, which is how
    the paper arrives at its "100 synopses x 24 bytes = 2.4 KB" per-link
    cost.  A plain MIN query is a bundle of one.
    """

    messages: Tuple[ReadingMessage, ...]

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("empty synopsis bundle")

    def canonical_bytes(self) -> bytes:
        return encode_parts("bundle", *(m.canonical_bytes() for m in self.messages))

    def wire_size(self) -> int:
        return sum(m.wire_size() for m in self.messages)

    def instance_message(self, instance: int) -> ReadingMessage:
        for message in self.messages:
            if message.instance == instance:
                return message
        raise KeyError(f"bundle has no instance {instance}")


Payload = Union[
    ReadingMessage,
    VetoMessage,
    TreeBeacon,
    PredicateChallenge,
    PredicateReply,
    SynopsisBundle,
]


def message_digest(message: Payload) -> bytes:
    """Canonical 32-byte identity of a payload (used by junk predicates)."""
    return oneway_hash(message.canonical_bytes())
