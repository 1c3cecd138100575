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
:func:`sample_distinct_rows`, which replays CPython's algorithm —
``random.seed`` of a bytes seed, MT19937 ``init_by_array``, the twist,
tempering, ``getrandbits`` rejection and ``sample``'s set-path dedup —
as whole-array numpy operations over a block of seeds.  Its rows are the
reference rows bit for bit; every batched call checks its first row
against the reference and raises :class:`CryptoError` on a mismatch.
"""

from __future__ import annotations

import hashlib
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
# Batched ring selection: CPython's MT19937 sampler over a block of seeds
# ----------------------------------------------------------------------
#: MT19937 parameters (CPython ``Modules/_randommodule.c``).
_MT_N = 624
_MT_M = 397
_MT_MATRIX_A = np.uint32(0x9908B0DF)
_MT_UPPER = np.uint32(0x80000000)
_MT_LOWER = np.uint32(0x7FFFFFFF)
_TEMPER_B = np.uint32(0x9D2C5680)
_TEMPER_C = np.uint32(0xEFC60000)

#: Seeds per block.  Every step of the sequential seeding recurrence is
#: one numpy call per block, so wider blocks amortize better, but each
#: block's transient arrays add to the build's peak RSS.
_BLOCK_ROWS = 256

#: Fewest draws (seeds x count) a call batches.  Below it the per-seed
#: reference takes no longer than one block's ~1,250 fixed numpy steps
#: (255 seeds at 2,000/60: 16 ms seed by seed against 18 ms batched) and
#: skips the block's transient arrays (0.5 MiB against 4 MiB of peak
#: RSS there).
_MIN_BATCH_DRAWS = 16_384


def _init_genrand(seed: int) -> np.ndarray:
    mt = [seed]
    for i in range(1, _MT_N):
        prev = mt[-1]
        mt.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
    return np.array(mt, dtype=np.uint32)


#: ``init_genrand(19650218)``, the state ``init_by_array`` starts from.
_MT_GENRAND_BASE = _init_genrand(19650218)

#: ``init_by_array``'s two passes: the state rows each step rewrites
#: (the pass starts at i = 1, resp. 2, and wraps from 623 to 1), the
#: multipliers, and the ``- i`` offsets of the second pass.
_SEED_PASS_ONE = tuple(range(1, _MT_N)) + (1,)
_SEED_PASS_TWO = tuple(range(2, _MT_N)) + (1,)
_SEED_MULT_ONE = np.uint32(1664525)
_SEED_MULT_TWO = np.uint32(1566083941)
_STATE_INDEX = np.arange(_MT_N, dtype=np.uint32)


def _seed_key(seed: bytes) -> np.ndarray:
    """The ``init_by_array`` key ``random.seed(seed)`` builds: the seed
    and its SHA-512 as one big-endian int, split into 32-bit words least
    significant first, zero high words dropped (``random_seed``)."""
    value = int.from_bytes(seed + hashlib.sha512(seed).digest(), "big")
    words = max(1, -(-value.bit_length() // 32))
    return np.frombuffer(value.to_bytes(4 * words, "little"), dtype="<u4")


def _seeded_states(keys: Sequence[np.ndarray]) -> np.ndarray:
    """MT19937 ``init_by_array`` for each key, as a ``(624, len(keys))``
    state: column ``b`` is the state after seeding with ``keys[b]``.

    The recurrence is sequential in the state index, so it runs as 1,247
    steps over whole state rows.  Keys must be at most 624 words long
    (the first pass then runs exactly 624 steps for every key).
    """
    width = len(keys)
    lengths = [key.size for key in keys]
    # Step s of the first pass adds init_key[j] + j with j = s mod len.
    additive = np.empty((_MT_N, width), dtype=np.uint32)
    for length in set(lengths):
        columns = [c for c, size in enumerate(lengths) if size == length]
        cycle = np.array([keys[c] for c in columns], dtype=np.uint32).T
        cycle += _STATE_INDEX[:length, None]
        additive[:, columns] = cycle[np.arange(_MT_N) % length]
    mt = np.repeat(_MT_GENRAND_BASE[:, None], width, axis=1)
    rows = list(mt)
    tmp = np.empty(width, dtype=np.uint32)
    # Each pass walks i = 1, 2, ..., 623 and wraps to 1, where
    # ``mt[i - 1]`` is mt[0] = mt[623]: always the row written last.
    prev = rows[0]
    for i, add in zip(_SEED_PASS_ONE, additive):
        cur = rows[i]
        np.right_shift(prev, 30, out=tmp)
        tmp ^= prev
        tmp *= _SEED_MULT_ONE
        tmp ^= cur
        np.add(tmp, add, out=cur)
        prev = cur
    for i in _SEED_PASS_TWO:
        cur = rows[i]
        np.right_shift(prev, 30, out=tmp)
        tmp ^= prev
        tmp *= _SEED_MULT_TWO
        tmp ^= cur
        np.subtract(tmp, _STATE_INDEX[i], out=cur)
        prev = cur
    mt[0] = _MT_UPPER
    return mt


def _twist_chunk(mt: np.ndarray, lo: int, hi: int, src: int) -> None:
    y = (mt[lo:hi] & _MT_UPPER) | (mt[lo + 1 : hi + 1] & _MT_LOWER)
    mt[lo:hi] = mt[src : src + hi - lo] ^ (y >> 1) ^ ((y & 1) * _MT_MATRIX_A)


def _next_words(mt: np.ndarray) -> np.ndarray:
    """Twist ``(624, B)`` states in place and return the next 624
    tempered words of each, ``(B, 624)`` in draw order."""
    span = _MT_N - _MT_M  # 227
    # kk in [0, 227) reads the old mt[kk + 397]; later chunks read rows
    # kk - 227 that an earlier chunk has already rewritten.
    _twist_chunk(mt, 0, span, _MT_M)
    _twist_chunk(mt, span, 2 * span, 0)
    _twist_chunk(mt, 2 * span, _MT_N - 1, span)
    y = (mt[_MT_N - 1] & _MT_UPPER) | (mt[0] & _MT_LOWER)
    mt[_MT_N - 1] = mt[_MT_M - 1] ^ (y >> 1) ^ ((y & 1) * _MT_MATRIX_A)
    y = mt >> 11
    y ^= mt
    tmp = y << 7
    tmp &= _TEMPER_B
    y ^= tmp
    np.left_shift(y, 15, out=tmp)
    tmp &= _TEMPER_C
    y ^= tmp
    np.right_shift(y, 18, out=tmp)
    y ^= tmp
    return y.T


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
    accepted values of its word stream.
    """
    bits = population.bit_length()
    mt = _seeded_states([_seed_key(seed) for seed in seeds])
    drawn = _top_bits(_next_words(mt), bits)
    while True:
        rows, short = _first_distinct(drawn, population, count)
        if not short.any():
            return rows
        # Rows that ran short draw their next 624 words; complete rows
        # pad with rejected values.
        more = np.full((len(seeds), _MT_N), population, dtype=drawn.dtype)
        states = mt[:, short]
        more[short] = _top_bits(_next_words(states), bits)
        mt[:, short] = states
        drawn = np.concatenate([drawn, more], axis=1)


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
    :data:`_MIN_BATCH_DRAWS` draws, rows are drawn by the batched
    MT19937 replay in blocks of :data:`_BLOCK_ROWS` seeds; every other
    call runs the per-seed reference.  A batched call checks its first
    row against the reference, so an interpreter whose ``random``
    diverges from the replay raises :class:`CryptoError` instead of
    building wrong rings.
    """
    _check_sample_shape(population, count)
    if population > 2**31:
        raise CryptoError(f"population {population} does not fit int32 rows")
    out = np.empty((len(seeds), count), dtype=np.int32)
    if not seeds:
        return out
    # Seeds up to 2,432 bytes give init_by_array keys of at most 624 words.
    batched = (
        len(seeds) * count >= _MIN_BATCH_DRAWS
        and _takes_set_path(population, count)
        and all(len(seed) <= 4 * _MT_N - 64 for seed in seeds)
    )
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
