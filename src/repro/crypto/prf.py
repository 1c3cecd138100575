"""Deterministic key derivation and pseudo-randomness.

Every key in the system — pool keys, sensor keys, broadcast-chain seeds —
is derived from a single master secret via HMAC as a PRF, so the base
station (which owns the master secret) can reconstruct any key on demand,
and a sensor's entire key ring is determined by an announceable seed
(Section VI: "the base station only needs to announce the associated
random seed used for the selection" to revoke all of a sensor's keys).

Synopsis generation (Section VIII) needs *verifiable* pseudo-randomness:
``prf_uniform`` maps ``(seed parts) -> [0, 1)`` deterministically so a
synopsis can be recomputed — and therefore checked — by anyone who knows
the nonce and the claimed reading.

Hot path: every call used to pay a fresh HMAC key schedule via
``hmac.new``.  The PRF now clones a cached pre-keyed state per secret
(:func:`repro.crypto.mac.hmac_sha256_digest`), which is bit-for-bit the
same computation — ``tests/test_golden_vectors.py`` pins the outputs.

Ring selection: :func:`sample_distinct_indices` is the per-seed
reference, ``sorted(random.Random(seed).sample(range(u), r))``.  Large
ring-table builds draw thousands of rings at once through
:func:`sample_distinct_rows`.  Each seed's generator is
``random.Random(seed)`` itself, so seeding is the stdlib's by
construction; its MT19937 words come 624 at a time from one
``getrandbits`` call, and ``getrandbits`` rejection and ``sample``'s
set-path dedup are replayed as whole-array numpy operations over a block
of seeds.  Its rows are the reference rows bit for bit; every batched
call checks its first row against the reference and raises
:class:`CryptoError` on a mismatch.
"""

from __future__ import annotations

import math
import random
import struct
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CryptoError
from .encoding import encode_parts
from .mac import _PAIR_VIEW, hmac_sha256_digest, keyed_sha256_pair

#: First 8 digest bytes as a big-endian u64 (no intermediate slice).
_UNPACK_U64 = struct.Struct(">Q").unpack_from


def prf_bytes(secret: bytes, *parts: Any, length: int = 16) -> bytes:
    """HMAC-SHA256 based PRF: ``PRF(secret, parts)`` truncated/expanded.

    Output longer than 32 bytes is produced by counter-mode expansion.
    """
    if not secret:
        raise CryptoError("empty PRF secret")
    if length <= 0:
        raise CryptoError("PRF output length must be positive")
    message = encode_parts(*parts)
    if length <= 32:
        pair = _PAIR_VIEW.get(secret)
        if pair is None:
            pair = keyed_sha256_pair(secret)
        h = pair[0].copy()
        h.update(message)
        h.update(b"\x00\x00\x00\x00")  # counter 0, big-endian
        o = pair[1].copy()
        o.update(h.digest())
        return o.digest()[:length]
    blocks: List[bytes] = []
    produced = 0
    counter = 0
    while produced < length:
        blocks.append(hmac_sha256_digest(secret, message, counter.to_bytes(4, "big")))
        produced += 32
        counter += 1
    return b"".join(blocks)[:length]




def derive_key(secret: bytes, label: str, *parts: Any, length: int = 16) -> bytes:
    """Domain-separated key derivation: ``PRF(secret, label || parts)``."""
    return prf_bytes(secret, label, *parts, length=length)


def prf_uniform(secret: bytes, *parts: Any) -> float:
    """A deterministic uniform draw in ``(0, 1)`` from ``(secret, parts)``.

    Uses 8 PRF bytes (53 bits of which feed the mantissa).  The result is
    strictly positive so it can safely feed ``-log(u)`` transforms.
    """
    if not secret:
        raise CryptoError("empty PRF secret")
    pair = _PAIR_VIEW.get(secret)
    if pair is None:
        pair = keyed_sha256_pair(secret)
    h = pair[0].copy()
    h.update(encode_parts(*parts))
    h.update(b"\x00\x00\x00\x00")  # prf_bytes counter 0
    o = pair[1].copy()
    o.update(h.digest())
    value = _UNPACK_U64(o.digest())[0] / 2**64
    # Avoid exactly 0.0 (probability 2^-64 but would break log()).
    return value if value > 0.0 else 2.0**-64


def sample_distinct_indices(seed: bytes, population: int, count: int) -> List[int]:
    """Deterministically sample ``count`` distinct indices in ``[0, population)``.

    This is the Eschenauer–Gligor ring selection: uniform without
    replacement, fully determined by ``seed``.  Returned sorted ascending
    (the binary searches in Figures 5/6 need a canonical order).
    """
    _check_sample_shape(population, count)
    rng = random.Random(seed)
    return sorted(rng.sample(range(population), count))


def _check_sample_shape(population: int, count: int) -> None:
    if population < 0 or count < 0:
        raise CryptoError(
            f"sample population and count must be non-negative, got {population}, {count}"
        )
    if count > population:
        raise CryptoError(f"cannot sample {count} distinct from {population}")


# ----------------------------------------------------------------------
# Batched ring selection: CPython's sampler over a block of seeds
# ----------------------------------------------------------------------
#: MT19937 words per ``getrandbits`` call: one full state's output.
_MT_N = 624

#: Seeds per block.  Blocks only bound the transient word and sort
#: arrays: ``_BLOCK_ROWS x 624`` words per pass.
_BLOCK_ROWS = 256

#: Fewest draws (seeds x count) a call batches.  Below it the per-seed
#: reference is kept for peak RSS: 255 seeds at 2,000/60 take 16 ms seed
#: by seed and 12 ms batched, but the batch's arrays add 3.4 MiB of peak
#: RSS where the reference adds none.
_MIN_BATCH_DRAWS = 16_384


def _top_bits(words: np.ndarray, bits: int) -> np.ndarray:
    """``getrandbits(bits)`` for ``bits <= 32``: the top bits of a word."""
    return words >> (32 - bits)


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """Over rows sorted by ``(value, draw position)``: whether each
    entry is its value's first draw."""
    first = np.ones(values.shape, dtype=bool)
    first[:, 1:] = values[:, 1:] != values[:, :-1]
    return first


def _first_distinct(
    drawn: np.ndarray, population: int, count: int
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Each row's first ``count`` distinct values below ``population``,
    in draw order, returned sorted; plus the mask of rows that hold
    fewer (rows are ``None`` while any row is short).

    One sort per row of ``value << p | draw position`` groups every
    value's draws with the earliest first; a row keeps the ``count``
    values whose first accepted draw comes earliest.
    """
    width = drawn.shape[1]
    if count > width:
        return None, np.ones(len(drawn), dtype=bool)
    pbits = (width - 1).bit_length()
    key_type = np.uint32 if population.bit_length() + pbits <= 32 else np.uint64
    keys = drawn.astype(key_type)
    keys <<= pbits
    keys |= np.arange(width, dtype=key_type)
    keys.sort(axis=1)
    values = keys >> pbits
    first = _first_occurrences(values)
    first &= values < population
    # ``keys`` becomes each entry's draw position, or ``width`` where the
    # entry is not a value's first accepted draw.
    keys &= key_type((1 << pbits) - 1)
    keys[~first] = width
    cutoff = np.partition(keys, count - 1, axis=1)[:, count - 1 : count]
    short = cutoff[:, 0] == width
    if short.any():
        return None, short
    return values[keys <= cutoff].reshape(len(drawn), count), short


def _sample_block(seeds: Sequence[bytes], population: int, count: int) -> np.ndarray:
    """``random.sample``'s set path for a block of seeds, sorted rows.

    ``randbelow(population)`` takes ``getrandbits(k)`` of one word per
    draw and redraws words ``>= population``; the set path also redraws
    values already selected.  So a row is the first ``count`` distinct
    accepted values of its word stream, which ``getrandbits(32 * 624)``
    returns 624 words at a time, least significant word first.
    """
    bits = population.bit_length()
    rngs = [random.Random(seed) for seed in seeds]
    drawn = _top_bits(_words(rngs), bits)
    while True:
        rows, short = _first_distinct(drawn, population, count)
        if not short.any():
            return rows
        # Rows that ran short draw their next 624 words; complete rows
        # pad with rejected values.
        more = np.full((len(seeds), _MT_N), population, dtype=drawn.dtype)
        more[short] = _top_bits(_words([rngs[i] for i in np.flatnonzero(short)]), bits)
        drawn = np.concatenate([drawn, more], axis=1)


def _words(rngs: Sequence[random.Random]) -> np.ndarray:
    """The next 624 MT19937 outputs of each generator, ``(len(rngs), 624)``
    in draw order."""
    size = 4 * _MT_N
    stream = b"".join(rng.getrandbits(32 * _MT_N).to_bytes(size, "little") for rng in rngs)
    return np.frombuffer(stream, dtype="<u4").reshape(len(rngs), _MT_N)


def _takes_set_path(population: int, count: int) -> bool:
    """Whether ``random.sample(range(population), count)`` selects by
    rejection against a set (rather than from a shrinking pool list)."""
    setsize = 21
    if count > 5:
        setsize += 4 ** math.ceil(math.log(count * 3, 4))
    return population > setsize


def sample_distinct_rows(
    seeds: Sequence[bytes], population: int, count: int
) -> np.ndarray:
    """:func:`sample_distinct_indices` for every seed, as ``int32`` rows.

    Returns a ``(len(seeds), count)`` array whose row ``i`` equals
    ``sample_distinct_indices(seeds[i], population, count)``.  Where
    ``random.sample`` takes its set path and the call makes at least
    :data:`_MIN_BATCH_DRAWS` draws, rows are drawn in blocks of
    :data:`_BLOCK_ROWS` seeds by replaying ``sample`` over each seed's
    word stream; every other call runs the per-seed reference.  A
    batched call checks its first row against the reference, so an
    interpreter whose ``random`` diverges from the replay raises
    :class:`CryptoError` instead of building wrong rings.
    """
    _check_sample_shape(population, count)
    if population > 2**31:
        raise CryptoError(f"population {population} does not fit int32 rows")
    out = np.empty((len(seeds), count), dtype=np.int32)
    if not seeds:
        return out
    batched = len(seeds) * count >= _MIN_BATCH_DRAWS and _takes_set_path(population, count)
    if not batched:
        for row, seed in enumerate(seeds):
            out[row] = sample_distinct_indices(seed, population, count)
        return out
    for start in range(0, len(seeds), _BLOCK_ROWS):
        block = seeds[start : start + _BLOCK_ROWS]
        out[start : start + len(block)] = _sample_block(block, population, count)
    _check_first_row(seeds[0], population, count, out[0])
    return out


def _check_first_row(seed: bytes, population: int, count: int, row: np.ndarray) -> None:
    if row.tolist() != sample_distinct_indices(seed, population, count):
        raise CryptoError(
            "batched ring selection diverges from random.sample on this interpreter"
        )
