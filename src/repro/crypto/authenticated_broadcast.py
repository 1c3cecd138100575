"""μTESLA-style authenticated broadcast (stands in for Ning et al. [20]).

VMAT uses authenticated broadcast as a black box with one property: the
base station can flood a message that every honest sensor can
authenticate, and the adversary can neither forge such a message nor
prevent its delivery (the DoS-hardening is the contribution of [20]).

We implement the classic one-way hash-chain construction for real:

1. At deployment, every sensor stores the chain *anchor* ``H^n(seed)``.
2. To broadcast the ``i``-th message, the authority MACs the payload with
   chain key ``K_i`` (the value with ``n - i`` remaining hash
   applications) and floods ``(i, payload, mac)``.  ``K_i`` is still
   secret, so nothing can be forged.
3. In a later slot the authority floods the *disclosure* ``K_i``.
   Sensors verify ``H^(i - i_last)(K_i) == last verified chain value``,
   then verify the buffered MAC and accept the payload.

The adversary can observe both waves but by the time it learns ``K_i``,
honest sensors no longer accept new index-``i`` claims, so altering a
payload in flight is detected (the buffered MAC fails) and forging a
fresh one is rejected (index already consumed).

A sensor's whole verifier state is its last verified index: the chain
value at that index is public once disclosed.  :func:`check_disclosure`
is the one implementation of step 3.  :class:`BroadcastVerifier` runs it
for a single sensor.  The simulator keeps the state of every sensor as
one index column (:class:`~repro.core.node_columns.NodeColumns`) plus
the chain values the network has verified.  Sensors share an index
unless they missed a round, so one flood calls :func:`check_disclosure`
once per distinct index among the sensors it reaches, not once per
sensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import BroadcastAuthError
from .hash import oneway_hash
from .mac import compute_mac, verify_mac

#: Longest index jump a verifier walks back along the chain.
MAX_CHAIN_GAP = 4096


@dataclass(frozen=True)
class AuthenticatedMessage:
    """Wave 1: the MAC'd payload, sent before the chain key is public."""

    index: int
    payload: Tuple[Any, ...]
    mac: bytes

    def wire_size(self) -> int:
        """Approximate on-air bytes: 2 (index) + 8 (mac) + payload fields."""
        from .encoding import encode_parts

        return 2 + len(self.mac) + len(encode_parts(*self.payload))


@dataclass(frozen=True)
class KeyDisclosure:
    """Wave 2: the chain key that validates one broadcast index."""

    index: int
    chain_key: bytes

    def wire_size(self) -> int:
        return 2 + len(self.chain_key)


#: Chain indices between the values :class:`BroadcastAuthority` keeps.
_CHECKPOINT_SPACING = 64


class BroadcastAuthority:
    """Base-station side: owns the hash chain, signs and discloses.

    It keeps every :data:`_CHECKPOINT_SPACING`-th chain value and the
    segment now being signed, re-deriving the next segment from the
    checkpoint above it: about 130 values for the default 4,096-long
    chain instead of all 4,097.
    """

    def __init__(self, seed: bytes, chain_length: int = 4096) -> None:
        if chain_length < 1:
            raise BroadcastAuthError("chain_length must be >= 1")
        # Chain value i is H^(n - i)(seed): value 0 is the anchor, value i
        # the key for broadcast index i.  _checkpoints[k] is the value at
        # min(k * spacing, n).
        self._length = chain_length
        self._checkpoints: List[bytes] = []
        value = seed
        for index in range(chain_length, -1, -1):
            if index % _CHECKPOINT_SPACING == 0 or index == chain_length:
                self._checkpoints.append(value)
            value = oneway_hash(value)
        self._checkpoints.reverse()
        self._segment_start = -1
        self._segment: List[bytes] = []
        self._next_index = 1
        self._undisclosed: Dict[int, bytes] = {}

    @property
    def anchor(self) -> bytes:
        """The public commitment pre-loaded on every sensor."""
        return self._checkpoints[0]

    @property
    def remaining(self) -> int:
        return self._length + 1 - self._next_index

    def _key(self, index: int) -> bytes:
        """Chain value ``index``, from the segment that holds it."""
        start = index - index % _CHECKPOINT_SPACING
        if start != self._segment_start:
            top = min(start + _CHECKPOINT_SPACING, self._length)
            value = self._checkpoints[-(-top // _CHECKPOINT_SPACING)]
            segment = [value]
            for _ in range(top - start):
                value = oneway_hash(value)
                segment.append(value)
            segment.reverse()
            self._segment_start, self._segment = start, segment
        return self._segment[index - start]

    def sign(self, *payload: Any) -> AuthenticatedMessage:
        """Produce the wave-1 message for the next chain index."""
        if self._next_index > self._length:
            raise BroadcastAuthError("hash chain exhausted; deploy a longer chain")
        index = self._next_index
        self._next_index += 1
        key = self._key(index)
        mac = compute_mac(key, index, *payload)
        self._undisclosed[index] = key
        return AuthenticatedMessage(index=index, payload=tuple(payload), mac=mac)

    def disclose(self, index: int) -> KeyDisclosure:
        """Produce the wave-2 disclosure for a previously signed index."""
        key = self._undisclosed.pop(index, None)
        if key is None:
            raise BroadcastAuthError(f"index {index} not signed or already disclosed")
        return KeyDisclosure(index=index, chain_key=key)


def check_disclosure(
    head_key: bytes,
    head_index: int,
    disclosure: KeyDisclosure,
    message: Optional[AuthenticatedMessage],
    max_gap: int = MAX_CHAIN_GAP,
) -> Tuple[bool, Optional[Tuple[Any, ...]]]:
    """Step 3 for a verifier whose last verified chain value is
    ``head_key`` at ``head_index``: ``(advance, payload)``.

    ``advance`` says whether the disclosed key hashes back to the head in
    exactly the index gap, so the verifier must move its head to the
    disclosed index.  ``payload`` is the buffered ``message``'s payload
    when its MAC also verifies under the disclosed key, else ``None``.
    """
    index = disclosure.index
    gap = index - head_index
    if gap <= 0 or gap > max_gap:
        return False, None
    value = disclosure.chain_key
    for _ in range(gap):
        value = oneway_hash(value)
    if value != head_key:
        return False, None
    if message is None or message.index != index:
        return True, None
    if not verify_mac(disclosure.chain_key, message.mac, index, *message.payload):
        return True, None
    return True, message.payload


class BroadcastVerifier:
    """Sensor side: buffers wave-1 messages, verifies on disclosure."""

    def __init__(self, anchor: bytes, max_chain_gap: int = MAX_CHAIN_GAP) -> None:
        self._last_verified_key = anchor
        self._last_verified_index = 0
        self._max_gap = max_chain_gap
        self._pending: Dict[int, AuthenticatedMessage] = {}

    def receive_message(self, message: AuthenticatedMessage) -> bool:
        """Buffer a wave-1 message.  Returns False if the index is stale
        or a (necessarily conflicting) message for it is already buffered.
        """
        if message.index <= self._last_verified_index:
            return False
        existing = self._pending.get(message.index)
        if existing is not None and existing != message:
            # Conflicting claims for one index: at most one can verify
            # later; keep the first, drop the rest (bounded buffering).
            return False
        self._pending[message.index] = message
        return True

    def receive_disclosure(self, disclosure: KeyDisclosure) -> Optional[Tuple[Any, ...]]:
        """Verify and return the payload authenticated by ``disclosure``.

        Returns ``None`` when there is nothing buffered for the index or
        the chain/MAC check fails.  On success the verifier's chain head
        advances, permanently retiring all indices up to the disclosed
        one (one-time semantics).
        """
        index = disclosure.index
        advance, payload = check_disclosure(
            self._last_verified_key,
            self._last_verified_index,
            disclosure,
            self._pending.get(index),
            self._max_gap,
        )
        if advance:
            # Advance the chain head even if no payload was buffered: the
            # key is now public and must never authenticate future traffic.
            self._last_verified_key = disclosure.chain_key
            self._last_verified_index = index
            self._pending = {i: m for i, m in self._pending.items() if i > index}
        return payload

    @property
    def verified_index(self) -> int:
        return self._last_verified_index

    @property
    def chain_head(self) -> bytes:
        """The last verified chain value (the anchor before any round)."""
        return self._last_verified_key
