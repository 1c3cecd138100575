"""μTESLA-style authenticated broadcast: forgery resistance, one-time
semantics, chain discipline."""

from __future__ import annotations

import pytest

from repro.crypto import BroadcastAuthority, BroadcastVerifier, KeyDisclosure
from repro.crypto.authenticated_broadcast import AuthenticatedMessage
from repro.crypto.hash import hash_chain, oneway_hash
from repro.crypto.mac import compute_mac
from repro.errors import BroadcastAuthError


@pytest.fixture
def authority():
    return BroadcastAuthority(b"chain-seed-32-bytes-of-material!", chain_length=64)


@pytest.fixture
def verifier(authority):
    return BroadcastVerifier(authority.anchor)


class TestHappyPath:
    def test_sign_then_disclose_verifies(self, authority, verifier):
        message = authority.sign("query", 42)
        assert verifier.receive_message(message)
        payload = verifier.receive_disclosure(authority.disclose(message.index))
        assert payload == ("query", 42)

    def test_sequence_of_broadcasts(self, authority, verifier):
        for i in range(10):
            message = authority.sign("msg", i)
            verifier.receive_message(message)
            assert verifier.receive_disclosure(authority.disclose(message.index)) == ("msg", i)
        assert verifier.verified_index == 10

    def test_gap_in_indices_still_verifies(self, authority, verifier):
        authority.sign("skipped a")  # never disclosed
        authority.sign("skipped b")
        message = authority.sign("real")
        verifier.receive_message(message)
        assert verifier.receive_disclosure(authority.disclose(message.index)) == ("real",)


class TestAttacks:
    def test_forged_payload_rejected(self, authority, verifier):
        message = authority.sign("genuine")
        forged = AuthenticatedMessage(
            index=message.index, payload=("forged",), mac=message.mac
        )
        verifier.receive_message(forged)
        assert verifier.receive_disclosure(authority.disclose(message.index)) is None

    def test_forged_mac_rejected(self, authority, verifier):
        message = authority.sign("genuine")
        forged = AuthenticatedMessage(
            index=message.index,
            payload=("forged",),
            mac=compute_mac(b"attacker-key", message.index, "forged"),
        )
        verifier.receive_message(forged)
        assert verifier.receive_disclosure(authority.disclose(message.index)) is None

    def test_disclosed_key_cannot_authenticate_new_message(self, authority, verifier):
        message = authority.sign("genuine")
        verifier.receive_message(message)
        disclosure = authority.disclose(message.index)
        assert verifier.receive_disclosure(disclosure) == ("genuine",)
        # Adversary now knows the chain key and crafts a new message for
        # the same index — one-time semantics must reject it.
        replay = AuthenticatedMessage(
            index=message.index,
            payload=("evil",),
            mac=compute_mac(disclosure.chain_key, message.index, "evil"),
        )
        assert not verifier.receive_message(replay)
        assert verifier.receive_disclosure(disclosure) is None

    def test_bogus_disclosure_rejected(self, authority, verifier):
        message = authority.sign("genuine")
        verifier.receive_message(message)
        bogus = KeyDisclosure(index=message.index, chain_key=b"not-a-chain-key!")
        assert verifier.receive_disclosure(bogus) is None
        # The genuine disclosure still works afterwards.
        assert verifier.receive_disclosure(authority.disclose(message.index)) == ("genuine",)

    def test_conflicting_wave1_claims_first_wins(self, authority, verifier):
        message = authority.sign("genuine")
        verifier.receive_message(message)
        conflicting = AuthenticatedMessage(
            index=message.index, payload=("evil",), mac=b"\x00" * 8
        )
        assert not verifier.receive_message(conflicting)
        assert verifier.receive_disclosure(authority.disclose(message.index)) == ("genuine",)

    def test_stale_index_rejected(self, authority, verifier):
        first = authority.sign("one")
        second = authority.sign("two")
        verifier.receive_message(second)
        verifier.receive_disclosure(authority.disclose(second.index))
        # Index 1 is now retired even though it was never delivered.
        verifier.receive_message(first)
        assert verifier.receive_disclosure(authority.disclose(first.index)) is None


class TestAuthorityDiscipline:
    def test_double_disclosure_rejected(self, authority):
        message = authority.sign("x")
        authority.disclose(message.index)
        with pytest.raises(BroadcastAuthError):
            authority.disclose(message.index)

    def test_disclosing_unsigned_index_rejected(self, authority):
        with pytest.raises(BroadcastAuthError):
            authority.disclose(99)

    def test_chain_exhaustion(self):
        authority = BroadcastAuthority(b"seed", chain_length=2)
        authority.sign("a")
        authority.sign("b")  # chain_length == number of signable slots
        with pytest.raises(BroadcastAuthError):
            authority.sign("c")

    @pytest.mark.parametrize("length", [300, 256, 1])
    def test_checkpointed_chain_matches_the_whole_chain(self, length):
        # The authority keeps checkpoints and one segment; every value it
        # hands out must be the stored chain's.
        seed = b"checkpoint-seed"
        chain = hash_chain(seed, length)
        authority = BroadcastAuthority(seed, chain_length=length)
        assert authority.anchor == chain[0]
        for index in range(1, length + 1):
            assert authority.remaining == length + 1 - index
            message = authority.sign("slot", index)
            assert message.index == index
            assert message.mac == compute_mac(chain[index], index, "slot", index, length=8)
            assert authority.disclose(index).chain_key == chain[index]
        assert authority.remaining == 0
        with pytest.raises(BroadcastAuthError, match="exhausted"):
            authority.sign("past the end")

    def test_remaining_counts_down(self, authority):
        before = authority.remaining
        authority.sign("x")
        assert authority.remaining == before - 1
