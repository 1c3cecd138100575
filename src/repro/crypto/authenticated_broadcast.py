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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..errors import BroadcastAuthError
from ..perf.cache import LRUCache
from .hash import hash_chain, oneway_hash
from .mac import compute_mac, verify_mac

#: Warm-path memos for the per-sensor disclosure checks.  Every honest
#: sensor verifies the *same* broadcast: the chain walk is a pure
#: function of (disclosed key, gap, expected chain head) and the MAC
#: check of (key, mac, index, payload), so one sensor's verification
#: answers for all n.  Both memos key on the actual byte values — two
#: networks with different chains can never collide — and the MAC memo
#: stores positive verdicts only.  Disabled (:mod:`repro.perf.cache`),
#: every sensor re-walks and re-MACs exactly as the construction says.
_CHAIN_WALKS = LRUCache("broadcast-chain-walks", maxsize=4096)
_BROADCAST_MACS = LRUCache("broadcast-mac-verdicts", maxsize=4096)


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


class BroadcastAuthority:
    """Base-station side: owns the hash chain, signs and discloses."""

    def __init__(self, seed: bytes, chain_length: int = 4096, mac_length: int = 8) -> None:
        if chain_length < 1:
            raise BroadcastAuthError("chain_length must be >= 1")
        # chain[0] is the anchor; chain[i] is the key for broadcast index i.
        self._chain = hash_chain(seed, chain_length)
        self._mac_length = mac_length
        self._next_index = 1
        self._undisclosed: Dict[int, bytes] = {}

    @property
    def anchor(self) -> bytes:
        """The public commitment pre-loaded on every sensor."""
        return self._chain[0]

    @property
    def remaining(self) -> int:
        return len(self._chain) - self._next_index

    def sign(self, *payload: Any) -> AuthenticatedMessage:
        """Produce the wave-1 message for the next chain index."""
        if self._next_index >= len(self._chain):
            raise BroadcastAuthError("hash chain exhausted; deploy a longer chain")
        index = self._next_index
        self._next_index += 1
        key = self._chain[index]
        mac = compute_mac(key, index, *payload, length=self._mac_length)
        self._undisclosed[index] = key
        return AuthenticatedMessage(index=index, payload=tuple(payload), mac=mac)

    def disclose(self, index: int) -> KeyDisclosure:
        """Produce the wave-2 disclosure for a previously signed index."""
        key = self._undisclosed.pop(index, None)
        if key is None:
            raise BroadcastAuthError(f"index {index} not signed or already disclosed")
        return KeyDisclosure(index=index, chain_key=key)


class BroadcastVerifier:
    """Sensor side: buffers wave-1 messages, verifies on disclosure."""

    def __init__(self, anchor: bytes, max_chain_gap: int = 4096) -> None:
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
        if index <= self._last_verified_index:
            return None
        gap = index - self._last_verified_index
        if gap > self._max_gap:
            return None
        # Walk the candidate key forward to the last verified chain value
        # (memoized; the memo misses on every read while caching is off).
        walk_key = (disclosure.chain_key, gap, self._last_verified_key)
        chain_ok = _CHAIN_WALKS.get(walk_key)
        if chain_ok is None:
            value = disclosure.chain_key
            for _ in range(gap):
                value = oneway_hash(value)
            chain_ok = value == self._last_verified_key
            _CHAIN_WALKS.put(walk_key, chain_ok)
        if not chain_ok:
            return None
        message = self._pending.pop(index, None)
        # Advance the chain head even if no payload was buffered: the key
        # is now public and must never authenticate future traffic.
        self._last_verified_key = disclosure.chain_key
        self._last_verified_index = index
        self._pending = {i: m for i, m in self._pending.items() if i > index}
        if message is None:
            return None
        try:
            mac_key = (disclosure.chain_key, message.mac, index, message.payload)
            mac_ok = _BROADCAST_MACS.get(mac_key)
        except TypeError:
            # Unhashable payload part: memo cannot apply, verify direct.
            mac_key = None
            mac_ok = None
        if mac_ok is None:
            mac_ok = verify_mac(disclosure.chain_key, message.mac, index, *message.payload)
            if mac_ok and mac_key is not None:
                _BROADCAST_MACS.put(mac_key, True)
        if not mac_ok:
            return None
        return message.payload

    @property
    def verified_index(self) -> int:
        return self._last_verified_index
