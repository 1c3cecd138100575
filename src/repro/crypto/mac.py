"""Message authentication codes: HMAC-SHA256, truncated.

Both *sensor MACs* (keyed on the sensor key shared with the base station)
and *edge MACs* (keyed on an Eschenauer–Gligor pool key shared between
neighbours) use the same construction; only the key differs.  The paper
budgets 8 bytes per MAC (Section IX), which is the default truncation.

Hot path: one simulated query MACs thousands of tuples under a handful
of keys, and ``hmac.new`` re-runs the two-block HMAC key schedule (key
hashing, padding, two translate passes, two compression-function calls)
every time.  :func:`keyed_sha256_pair` caches the padded inner/outer
SHA-256 states per key (bounded LRU, see :mod:`repro.perf.cache`) and
:func:`hmac_sha256_digest` clones them per message, which *is* the
definition ``SHA256((K ^ opad) || SHA256((K ^ ipad) || m))`` — the same
bytes ``hmac.new(key, m, sha256).digest()`` produces, without the
wrapper-object overhead.  ``tests/test_golden_vectors.py`` pins the
outputs against ``hmac.new`` and against checked-in vectors.
"""

from __future__ import annotations

import hmac
import hashlib
from typing import Any, Tuple

from ..errors import MacVerificationError
from ..perf.cache import LRUCache
from .encoding import encode_parts

DEFAULT_MAC_LENGTH = 8

_SHA256_BLOCK = 64  # bytes
_TRANS_IPAD = bytes(x ^ 0x36 for x in range(256))
_TRANS_OPAD = bytes(x ^ 0x5C for x in range(256))

#: Pre-keyed (inner, outer) SHA-256 states, one pair per key.  The
#: default bound fits ≤1k-node deployments; ``build_deployment`` calls
#: :func:`repro.perf.cache.autosize_caches` to grow it for larger ones
#: (the 10k-node sweep thrashed this cache at 8192).  Hot paths read
#: through the raw view (~0.15us cheaper per MAC than ``get``) but still
#: count the hit; misses fall back to :func:`keyed_sha256_pair`, which
#: does the rest of the accounting.
_KEYED_STATES = LRUCache("hmac-keyed-states", maxsize=8192)
_PAIR_VIEW = _KEYED_STATES.view()


def keyed_sha256_pair(key: bytes, store: bool = True) -> "Tuple[Any, Any]":
    """The HMAC-SHA256 (inner, outer) states for ``key``, cached.

    Callers must ``.copy()`` before updating; :func:`hmac_sha256_digest`
    is the intended consumer.  ``store=False`` skips the cache insertion
    on a miss (reads are unchanged) — bulk once-per-key sweeps, like
    signing every sensor's instance messages under its own sensor key,
    would otherwise park one dead keyed state per sensor in the cache.
    """
    pair = _KEYED_STATES.get(key)
    if pair is None:
        block_key = hashlib.sha256(key).digest() if len(key) > _SHA256_BLOCK else key
        block_key = block_key.ljust(_SHA256_BLOCK, b"\x00")
        pair = (
            hashlib.sha256(block_key.translate(_TRANS_IPAD)),
            hashlib.sha256(block_key.translate(_TRANS_OPAD)),
        )
        if store:
            _KEYED_STATES.put(key, pair)
    return pair


def hmac_sha256_digest(key: bytes, *chunks: bytes) -> bytes:
    """``HMAC-SHA256(key, b"".join(chunks))``, full 32 bytes."""
    pair = _PAIR_VIEW.get(key)
    if pair is None:
        pair = keyed_sha256_pair(key)
    else:
        _KEYED_STATES.hits += 1
    h = pair[0].copy()
    for chunk in chunks:
        h.update(chunk)
    o = pair[1].copy()
    o.update(h.digest())
    return o.digest()


def compute_mac(key: bytes, *parts: Any, length: int = DEFAULT_MAC_LENGTH) -> bytes:
    """HMAC-SHA256 over the canonical encoding of ``parts``, truncated.

    Truncating HMAC output is a standard, safe construction; 8 bytes
    matches the paper's communication accounting.
    """
    if not key:
        raise MacVerificationError("empty MAC key")
    if not 4 <= length <= 32:
        raise MacVerificationError(f"MAC length {length} out of range [4, 32]")
    pair = _PAIR_VIEW.get(key)
    if pair is None:
        pair = keyed_sha256_pair(key)
    else:
        _KEYED_STATES.hits += 1
    h = pair[0].copy()
    h.update(encode_parts(*parts))
    o = pair[1].copy()
    o.update(h.digest())
    return o.digest()[:length]


def compute_mac_message(
    key: bytes, message: bytes, length: int = DEFAULT_MAC_LENGTH, store: bool = True
) -> bytes:
    """:func:`compute_mac` over pre-encoded message bytes.

    The fast path for call sites that reuse one canonical encoding
    across several MACs (e.g. the per-receiver edge MACs of one local
    broadcast, or a sensor signing ``m`` synopsis instances).  The
    caller is responsible for ``message`` being the ``encode_parts``
    encoding of the logical tuple — injectivity lives there.
    ``store=False`` is forwarded to :func:`keyed_sha256_pair` for bulk
    once-per-key callers.
    """
    if not key:
        raise MacVerificationError("empty MAC key")
    if not 4 <= length <= 32:
        raise MacVerificationError(f"MAC length {length} out of range [4, 32]")
    pair = _PAIR_VIEW.get(key)
    if pair is None:
        pair = keyed_sha256_pair(key, store=store)
    else:
        _KEYED_STATES.hits += 1
    h = pair[0].copy()
    h.update(message)
    o = pair[1].copy()
    o.update(h.digest())
    return o.digest()[:length]


def verify_mac(key: bytes, mac: bytes, *parts: Any) -> bool:
    """Constant-time verification of a MAC produced by :func:`compute_mac`."""
    return verify_mac_message(key, mac, encode_parts(*parts))


def verify_mac_message(key: bytes, mac: bytes, message: bytes) -> bool:
    """:func:`verify_mac` over pre-encoded message bytes.

    Every MAC on the wire is :data:`DEFAULT_MAC_LENGTH` bytes, so a MAC
    of any other length is refused: verifying at the length the sender
    chose would let a forger pick a shorter prefix.
    """
    if not key:
        raise MacVerificationError("empty MAC key")
    if len(mac) != DEFAULT_MAC_LENGTH:
        return False
    return hmac.compare_digest(compute_mac_message(key, message), mac)


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Constant-time byte-string comparison (re-exported for relays)."""
    return hmac.compare_digest(a, b)
