"""Canonical, injective byte encoding for MAC'd protocol tuples.

When the paper writes ``MAC_id(v || nonce)``, the concatenation must be
injective or two distinct logical messages could share a MAC.  We encode
every field with a one-byte type tag and a length prefix, so the encoding
of a tuple of fields is collision-free by construction, and round-trips
(``decode_parts(encode_parts(*p)) == p``) for the supported field types:
``int``, ``float``, ``str``, ``bytes``, ``bool``, ``None`` and nested
tuples/lists thereof.

This sits under every MAC and PRF call, so the encoder keeps fast paths
for the dominant field shapes: exact-type dispatch instead of an
``isinstance`` chain, a precomputed table of small-int encodings
(sensor ids, instances, intervals, key indices), and precomputed length
prefixes for short payloads.  All fast paths emit byte-identical output
to the general path — ``tests/test_golden_vectors.py`` pins it.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Tuple

from ..errors import CryptoError

_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_BOOL = b"t"
_TAG_NONE = b"n"
_TAG_TUPLE = b"T"

_PACK_U32 = struct.Struct(">I").pack
_PACK_F64 = struct.Struct(">d").pack
_UNPACK_U32 = struct.Struct(">I").unpack
_UNPACK_F64 = struct.Struct(">d").unpack

#: Precomputed 4-byte length prefixes for the short payloads that
#: dominate (ids, values, nonces, truncated MACs).
_PREFIXES = tuple(_PACK_U32(n) for n in range(256))

_ENCODED_NONE = _TAG_NONE + _PREFIXES[0]
_ENCODED_TRUE = _TAG_BOOL + _PREFIXES[1] + b"\x01"
_ENCODED_FALSE = _TAG_BOOL + _PREFIXES[1] + b"\x00"

#: Fused ``tag + length-prefix`` headers for short str/bytes payloads
#: and the fixed-width float header: one concatenation per field
#: instead of three.
_BYTES_HEADERS = tuple(_TAG_BYTES + prefix for prefix in _PREFIXES)
_STR_HEADERS = tuple(_TAG_STR + prefix for prefix in _PREFIXES)
_FLOAT_HEADER = _TAG_FLOAT + _PREFIXES[8]


def _length_prefix(payload: bytes) -> bytes:
    size = len(payload)
    if size < 256:
        return _PREFIXES[size]
    if size > 0xFFFFFFFF:
        raise CryptoError("field too long to encode")
    return _PACK_U32(size)


def _encode_int(part: int) -> bytes:
    payload = part.to_bytes((part.bit_length() + 8) // 8 + 1, "big", signed=True)
    return _TAG_INT + _PREFIXES[len(payload)] + payload


#: Small non-negative ints are the single most common field shape;
#: their encodings are tiny and immutable, so a flat table beats
#: re-deriving tag + prefix + two's-complement payload every call.
_SMALL_INTS = tuple(_encode_int(i) for i in range(2048))


def _encode_int_fast(part: int) -> bytes:
    if 0 <= part < 2048:
        return _SMALL_INTS[part]
    return _encode_int(part)


def _encode_float(part: float) -> bytes:
    return _FLOAT_HEADER + _PACK_F64(part)


def _encode_str(part: str) -> bytes:
    payload = part.encode("utf-8")
    return _TAG_STR + _length_prefix(payload) + payload


def _encode_bytes(part: bytes) -> bytes:
    return _TAG_BYTES + _length_prefix(part) + part


def _encode_bool(part: bool) -> bytes:
    return _ENCODED_TRUE if part else _ENCODED_FALSE


def _encode_none(part: None) -> bytes:
    return _ENCODED_NONE


def _encode_sequence(part: "tuple | list") -> bytes:
    inner = encode_parts(*part)
    return _TAG_TUPLE + _length_prefix(inner) + inner


#: Exact-type dispatch table.  ``bool`` precedes nothing here — exact
#: ``type()`` lookup cannot confuse ``True`` with ``1`` the way an
#: ``isinstance`` chain could; subclasses fall through to the general
#: path, which preserves the original bool-before-int ordering.
_ENCODERS: Dict[type, Callable[[Any], bytes]] = {
    int: _encode_int_fast,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    bool: _encode_bool,
    type(None): _encode_none,
    tuple: _encode_sequence,
    list: _encode_sequence,
}


def encode_parts(*parts: Any) -> bytes:
    """Canonically encode a tuple of fields to bytes.

    The four dominant field shapes (small int, short bytes, short str,
    float) are encoded inline in the loop — this function sits under
    every MAC/PRF call and a per-field function call is measurable.
    Exact ``type()`` checks keep ``bool`` (an ``int`` subclass) and
    user subclasses on the general path, which preserves the original
    bool-before-int semantics.
    """
    chunks: List[bytes] = []
    append = chunks.append
    for part in parts:
        tp = type(part)
        if tp is int:
            if 0 <= part < 2048:
                append(_SMALL_INTS[part])
            else:
                append(_encode_int(part))
        elif tp is bytes:
            size = len(part)
            if size < 256:
                append(_BYTES_HEADERS[size] + part)
            else:
                append(_encode_bytes(part))
        elif tp is str:
            payload = part.encode("utf-8")
            size = len(payload)
            if size < 256:
                append(_STR_HEADERS[size] + payload)
            else:
                append(_TAG_STR + _length_prefix(payload) + payload)
        elif tp is float:
            append(_FLOAT_HEADER + _PACK_F64(part))
        else:
            encoder = _ENCODERS.get(tp)
            append(encoder(part) if encoder is not None else _encode_general(part))
    return b"".join(chunks)


def _encode_one(part: Any) -> bytes:
    """Encode a single field (the general entry point, any type)."""
    encoder = _ENCODERS.get(type(part))
    if encoder is not None:
        return encoder(part)
    return _encode_general(part)


def _encode_general(part: Any) -> bytes:
    """Subclass-tolerant fallback (bool before int: bool is an int subclass)."""
    if isinstance(part, bool):
        return _encode_bool(part)
    if isinstance(part, int):
        return _encode_int(int(part))
    if isinstance(part, float):
        return _encode_float(float(part))
    if isinstance(part, str):
        return _encode_str(str(part))
    if isinstance(part, (bytes, bytearray)):
        return _encode_bytes(bytes(part))
    if isinstance(part, (tuple, list)):
        return _encode_sequence(part)
    raise CryptoError(f"cannot canonically encode value of type {type(part).__name__}")


#: Deepest tuple nesting :func:`decode_parts` follows; nothing the
#: protocol encodes comes close, and a hostile record cannot recurse
#: the decoder into a ``RecursionError``.
MAX_NESTING = 64


def decode_parts(data: bytes) -> Tuple[Any, ...]:
    """Inverse of :func:`encode_parts` (tuples and lists both decode to tuples).

    Malformed input — truncated, an unknown tag, a float field that is
    not 8 bytes, a string that is not UTF-8, nesting past
    :data:`MAX_NESTING` — raises :class:`CryptoError`, never a bare
    ``struct`` or codec error.
    """
    return _decode_sequence(data, 0)


def _decode_sequence(data: bytes, depth: int) -> Tuple[Any, ...]:
    if depth > MAX_NESTING:
        raise CryptoError(f"encoding nested deeper than {MAX_NESTING} tuples")
    parts: List[Any] = []
    offset = 0
    while offset < len(data):
        part, offset = _decode_one(data, offset, depth)
        parts.append(part)
    return tuple(parts)


def _decode_one(data: bytes, offset: int, depth: int) -> Tuple[Any, int]:
    if offset + 5 > len(data):
        raise CryptoError("truncated encoding")
    tag = data[offset : offset + 1]
    (length,) = _UNPACK_U32(data[offset + 1 : offset + 5])
    start = offset + 5
    end = start + length
    if end > len(data):
        raise CryptoError("truncated field payload")
    payload = data[start:end]
    if tag == _TAG_NONE:
        return None, end
    if tag == _TAG_BOOL:
        return payload == b"\x01", end
    if tag == _TAG_INT:
        return int.from_bytes(payload, "big", signed=True), end
    if tag == _TAG_FLOAT:
        if length != 8:
            raise CryptoError(f"float field of {length} bytes (expected 8)")
        return _UNPACK_F64(payload)[0], end
    if tag == _TAG_STR:
        try:
            return payload.decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise CryptoError(f"string field is not UTF-8: {exc.reason}") from None
    if tag == _TAG_BYTES:
        return payload, end
    if tag == _TAG_TUPLE:
        return _decode_sequence(payload, depth + 1), end
    raise CryptoError(f"unknown encoding tag {tag!r}")
