"""Seeded malformed-input fuzzing of the decoders at process boundaries.

Service frames and control records cross OS processes as canonical
``encode_parts`` encodings.  Four entry points decode them:
``decode_parts``, ``StreamDecoder.feed`` (socket records),
``decode_payload`` (frame bodies) and ``decode_predicate`` (challenge
predicates).  Every mutated or truncated input must end in a value or
a typed :class:`~repro.errors.ReproError`, within a time bound: never a
bare ``struct``/codec error, a recursion blow-up or a hang.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.predicate_test import (
    AggForwarded,
    AggReceived,
    AggReceivedExact,
    AggSentExact,
    ConfReceivedExact,
    ConfSentExact,
    decode_predicate,
)
from repro.crypto.encoding import decode_parts, encode_parts
from repro.errors import ReproError
from repro.net.framing import StreamDecoder, decode_payload, encode_record
from repro.net.message import (
    PredicateChallenge,
    PredicateReply,
    ReadingMessage,
    SynopsisBundle,
    TreeBeacon,
    VetoMessage,
)

#: Wall-clock bound for decoding one input.
TIME_BOUND_S = 0.5

#: The encoding's type tags, for tag-swapping mutations.
TAGS = b"ifsbtnT"

READING = ReadingMessage(sensor_id=7, value=12.5, mac=b"m" * 8, instance=1)
PAYLOADS = (
    READING,
    VetoMessage(sensor_id=3, value=1.5, level=4, mac=b"v" * 8, instance=0),
    TreeBeacon(origin=0, hop_count=2),
    PredicateChallenge(
        key_ref=("pool", 11), predicate_bytes=b"p" * 12, nonce=b"n" * 8,
        reply_hash=b"h" * 16,
    ),
    PredicateReply(mac=b"r" * 8),
    SynopsisBundle(messages=(READING, READING)),
)
PREDICATES = (
    AggForwarded(3, 40.0, 2, 9, 1),
    AggReceived(1, 20, 40.0, 2, 5, 0),
    AggSentExact(1, 20, b"d" * 8, 3, 5),
    AggReceivedExact(b"d" * 8, 4, 2, 9),
    ConfSentExact(1, 20, b"d" * 8, 4, 5),
    ConfReceivedExact(b"d" * 8, 4, 2, 9),
)


def _nested(depth: int) -> bytes:
    """A ``None`` wrapped in ``depth`` one-element tuples."""
    inner = encode_parts(None)
    for _ in range(depth):
        inner = b"T" + len(inner).to_bytes(4, "big") + inner
    return inner


def _decode_stream(data: bytes):
    return StreamDecoder().feed(data)


#: entry point -> (decoder, well-formed seed inputs)
ENTRY_POINTS = {
    "decode_parts": (
        decode_parts,
        [encode_parts(1, -2.5, "tag", b"raw", True, None, (4, ("x", 5.0)))],
    ),
    "stream": (
        _decode_stream,
        [encode_record("tick", 3, (1, 2)) + encode_record("frame", b"x", 1.0, "é")],
    ),
    "decode_payload": (decode_payload, [p.canonical_bytes() for p in PAYLOADS]),
    "decode_predicate": (decode_predicate, [p.encode() for p in PREDICATES]),
}


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One seeded corruption: truncate, flip bytes, swap a type tag,
    rewrite a length field, splice in junk, or invalid UTF-8."""
    buf = bytearray(data)
    kind = rng.randrange(6)
    if kind == 0 or not buf:
        return bytes(buf[: rng.randrange(len(buf) + 1)])
    if kind == 1:
        for _ in range(rng.randint(1, 3)):
            buf[rng.randrange(len(buf))] = rng.randrange(256)
    elif kind == 2:
        buf[rng.randrange(len(buf))] = rng.choice(TAGS)
    elif kind == 3:
        at = rng.randrange(len(buf))
        buf[at:at + 4] = rng.randrange(0, 64).to_bytes(4, "big")
    elif kind == 4:
        at = rng.randrange(len(buf) + 1)
        buf[at:at] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 9)))
    else:
        at = rng.randrange(len(buf) + 1)
        buf[at:at] = b"s\x00\x00\x00\x02\xff\xfe"
    return bytes(buf)


def _ends_typed(decoder, data: bytes) -> None:
    started = time.perf_counter()
    try:
        decoder(data)
    except ReproError:
        pass
    elapsed = time.perf_counter() - started
    assert elapsed < TIME_BOUND_S, f"{data!r} took {elapsed:.3f} s"


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_mutated_inputs_end_in_a_value_or_a_typed_error(entry):
    decoder, seeds = ENTRY_POINTS[entry]
    rng = random.Random(f"decode-fuzz:{entry}")
    for seed in seeds:
        decoder(seed)  # the well-formed input decodes
        for _ in range(400):
            _ends_typed(decoder, mutate(seed, rng))


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "data",
    [
        pytest.param(b"f\x00\x00\x00\x02\x00\x01", id="short-float"),
        pytest.param(b"s\x00\x00\x00\x02\xff\xfe", id="invalid-utf8"),
        pytest.param(_nested(5_000), id="deep-nesting"),
    ],
)
def test_known_malformed_fields_raise_typed_errors(entry, data):
    decoder, _ = ENTRY_POINTS[entry]
    if entry == "stream":
        data = len(data).to_bytes(4, "big") + data
    with pytest.raises(ReproError):
        decoder(data)
