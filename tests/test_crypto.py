"""Crypto toolbox: encoding, MACs, hashes, PRF, nonces."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.crypto import (
    compute_mac,
    decode_parts,
    derive_key,
    encode_parts,
    hash_chain,
    oneway_hash,
    prf_bytes,
    prf_uniform,
    sample_distinct_indices,
    verify_mac,
)
from repro.crypto.hash import verify_chain_link
from repro.crypto import prf
from repro.crypto.nonce import NonceSource
from repro.errors import CryptoError, MacVerificationError

# Field values the canonical encoding must round-trip.
_fields = st.one_of(
    st.integers(min_value=-(2**100), max_value=2**100),
    st.floats(allow_nan=False),
    st.text(max_size=50),
    st.binary(max_size=50),
    st.booleans(),
    st.none(),
)


class TestEncoding:
    def test_round_trip_simple(self):
        parts = (1, "hello", b"\x00\xff", 2.5, True, None)
        assert decode_parts(encode_parts(*parts)) == parts

    def test_round_trip_nested(self):
        parts = ((1, (2, "x")), b"raw")
        assert decode_parts(encode_parts(*parts)) == parts

    def test_injective_across_field_boundaries(self):
        # "ab" + "c" must not collide with "a" + "bc".
        assert encode_parts("ab", "c") != encode_parts("a", "bc")

    def test_type_tags_distinguish_value_kinds(self):
        assert encode_parts(1) != encode_parts("1")
        assert encode_parts(1) != encode_parts(1.0)
        assert encode_parts(True) != encode_parts(1)
        assert encode_parts(b"") != encode_parts("")

    def test_rejects_unencodable(self):
        with pytest.raises(CryptoError):
            encode_parts(object())

    def test_rejects_truncated_data(self):
        data = encode_parts("hello")
        with pytest.raises(CryptoError):
            decode_parts(data[:-1])

    @given(st.lists(_fields, max_size=6))
    def test_round_trip_property(self, parts):
        assert decode_parts(encode_parts(*parts)) == tuple(parts)

    @given(st.lists(_fields, min_size=1, max_size=4), st.lists(_fields, min_size=1, max_size=4))
    def test_injectivity_property(self, a, b):
        if tuple(a) != tuple(b):
            assert encode_parts(*a) != encode_parts(*b)


class TestMac:
    def test_verify_accepts_genuine(self):
        mac = compute_mac(b"key", 1, "v", b"nonce")
        assert verify_mac(b"key", mac, 1, "v", b"nonce")

    def test_verify_rejects_wrong_key(self):
        mac = compute_mac(b"key", "payload")
        assert not verify_mac(b"other", mac, "payload")

    def test_verify_rejects_modified_payload(self):
        mac = compute_mac(b"key", "payload", 7)
        assert not verify_mac(b"key", mac, "payload", 8)

    def test_verify_rejects_reordered_fields(self):
        mac = compute_mac(b"key", "a", "b")
        assert not verify_mac(b"key", mac, "b", "a")

    def test_default_length_is_8_bytes(self):
        assert len(compute_mac(b"key", "x")) == 8

    def test_custom_length(self):
        assert len(compute_mac(b"key", "x", length=16)) == 16

    def test_empty_key_rejected(self):
        with pytest.raises(MacVerificationError):
            compute_mac(b"", "x")
        with pytest.raises(MacVerificationError):
            verify_mac(b"", b"\x00" * 8, "x")

    def test_empty_mac_fails_verification(self):
        assert not verify_mac(b"key", b"", "x")

    @given(st.binary(min_size=1, max_size=32), st.lists(_fields, max_size=4))
    def test_mac_round_trip_property(self, key, parts):
        mac = compute_mac(key, *parts)
        assert verify_mac(key, mac, *parts)


class TestHashChain:
    def test_chain_links(self):
        chain = hash_chain(b"seed", 5)
        assert len(chain) == 6
        for i in range(5):
            assert chain[i] == oneway_hash(chain[i + 1])

    def test_anchor_is_most_hashed(self):
        chain = hash_chain(b"seed", 3)
        value = b"seed"
        for _ in range(3):
            value = oneway_hash(value)
        assert chain[0] == value

    def test_verify_chain_link_distances(self):
        chain = hash_chain(b"seed", 10)
        anchor = chain[0]
        assert verify_chain_link(anchor, chain[0], 10) == 0
        assert verify_chain_link(anchor, chain[4], 10) == 4
        assert verify_chain_link(anchor, b"bogus" * 6 + b"xx", 10) == -1

    def test_zero_length_chain(self):
        assert hash_chain(b"s", 0) == [b"s"]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            hash_chain(b"s", -1)


class TestPrf:
    def test_deterministic(self):
        assert prf_bytes(b"s", "a", 1) == prf_bytes(b"s", "a", 1)

    def test_distinct_inputs_distinct_outputs(self):
        assert prf_bytes(b"s", "a") != prf_bytes(b"s", "b")
        assert prf_bytes(b"s1", "a") != prf_bytes(b"s2", "a")

    def test_length_expansion(self):
        out = prf_bytes(b"s", "x", length=100)
        assert len(out) == 100
        # expansion is a prefix-consistent stream
        assert out[:16] == prf_bytes(b"s", "x", length=16)

    def test_rejects_empty_secret(self):
        with pytest.raises(CryptoError):
            prf_bytes(b"", "x")

    def test_derive_key_domain_separation(self):
        assert derive_key(b"m", "pool-key", 1) != derive_key(b"m", "sensor-key", 1)

    def test_prf_uniform_in_unit_interval(self):
        values = [prf_uniform(b"s", i) for i in range(200)]
        assert all(0 < v < 1 for v in values)
        # crude uniformity: mean near 0.5
        assert 0.4 < sum(values) / len(values) < 0.6

    def test_sample_distinct_indices(self):
        indices = sample_distinct_indices(b"seed", 100, 30)
        assert len(indices) == 30
        assert len(set(indices)) == 30
        assert indices == sorted(indices)
        assert all(0 <= i < 100 for i in indices)

    def test_sample_deterministic(self):
        assert sample_distinct_indices(b"s", 50, 10) == sample_distinct_indices(b"s", 50, 10)

    def test_sample_rejects_oversampling(self):
        with pytest.raises(CryptoError):
            sample_distinct_indices(b"s", 5, 6)

    @pytest.mark.parametrize(
        "population,count", [(10, -1), (-1, -2), (-5, 0)], ids=["count", "both", "population"]
    )
    def test_samplers_reject_negative_shapes_typed(self, population, count):
        # random.sample's own ValueError must not leak past the boundary.
        with pytest.raises(CryptoError):
            sample_distinct_indices(b"s", population, count)
        with pytest.raises(CryptoError):
            prf.sample_distinct_rows([b"s"], population, count)


class TestNonceSource:
    def test_nonces_never_repeat(self):
        source = NonceSource(b"secret")
        nonces = [source.next() for _ in range(500)]
        assert len(set(nonces)) == 500

    def test_was_issued(self):
        source = NonceSource(b"secret")
        nonce = source.next()
        assert source.was_issued(nonce)
        assert not source.was_issued(b"never")

    def test_deterministic_sequence(self):
        a = NonceSource(b"k")
        b = NonceSource(b"k")
        assert [a.next() for _ in range(5)] == [b.next() for _ in range(5)]

    def test_issued_count(self):
        source = NonceSource(b"k")
        source.next()
        source.next()
        assert source.issued_count == 2
