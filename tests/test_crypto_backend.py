"""Backend, cost-accounting, digests/hash-chain, and HMAC-vector tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aom.messages import auth_input
from repro.crypto.backend import CryptoContext, KeyAuthority
from repro.crypto.costmodel import CostModel
from repro.crypto.digests import (
    HashChain,
    chain_step,
    fields_digest,
    sha256_digest,
)
from repro.crypto.hmacvec import HMAC_TAG_SIZE, HmacVector, sim_mac


@pytest.fixture
def authority():
    return KeyAuthority(b"repro")


class TestBackends:
    def test_sign_verify_roundtrip(self, authority):
        authority.register(1)
        tag = authority.sign_as(1, b"hello")
        assert authority.verify(1, b"hello", tag)

    def test_tampered_data_rejected(self, authority):
        authority.register(1)
        tag = authority.sign_as(1, b"hello")
        assert not authority.verify(1, b"hellp", tag)

    def test_unknown_signer_rejected(self, authority):
        # A tag made by identity 1 does not verify for an unregistered one.
        authority.register(1)
        tag = authority.sign_as(1, b"hello")
        assert not authority.verify(999, b"hello", tag)

    def test_cross_identity_signature_rejected(self, authority):
        # A tag made by identity 1 does not verify for identity 2.
        authority.register(1)
        authority.register(2)
        tag = authority.sign_as(1, b"hello")
        assert not authority.verify(2, b"hello", tag)

    def test_register_idempotent(self, authority):
        authority.register(5)
        tag = authority.sign_as(5, b"x")
        authority.register(5)
        assert authority.verify(5, b"x", tag)

    def test_fast_payload_is_16_bytes(self, authority):
        authority.register(3)
        tag = authority.sign_as(3, b"m")
        assert isinstance(tag, bytes) and len(tag) == 16

    def test_identity_signature_is_pinned(self):
        # Identity 3's secret is SHA-256(b"repro/identity/" || 8-byte id)[:16]
        # and its tag over b"m" a 16-byte keyed BLAKE2b; the session secret
        # plays no part.
        for session_secret in (b"repro", b"cluster-bootstrap/7"):
            authority = KeyAuthority(session_secret)
            authority.register(3)
            tag = authority.sign_as(3, b"m")
            assert tag.hex() == "66aae5b0f123e5a8e3b778ef7e36405e"


class TestCostAccounting:
    def make_context(self):
        charges = []
        authority = KeyAuthority(b"repro")
        cost = CostModel()
        ctx = CryptoContext(7, authority, cost, charges.append)
        return ctx, charges, cost

    def test_sign_charges_sign_cost(self):
        ctx, charges, cost = self.make_context()
        ctx.sign(b"data")
        assert charges == [cost.ecdsa_sign_ns]

    def test_verify_charges_verify_cost(self):
        ctx, charges, cost = self.make_context()
        tag = ctx.sign(b"data")
        charges.clear()
        assert ctx.verify(7, b"data", tag)
        assert charges == [cost.ecdsa_verify_ns]

    def test_mac_charges_hmac_cost(self):
        ctx, charges, cost = self.make_context()
        ctx.mac_to(8, b"data")
        assert charges == [cost.hmac_ns]

    def test_digest_charges_sha_cost(self):
        ctx, charges, cost = self.make_context()
        ctx.digest(b"data")
        assert charges == [cost.sha256_ns]

    def test_threshold_ops_charge(self):
        ctx, charges, cost = self.make_context()
        share = ctx.threshold_share(b"qc")
        assert ctx.verify_threshold_share(7, b"qc", share)
        combined = ctx.combine_threshold(b"qc")
        assert ctx.verify_threshold_combined(7, b"qc", combined)
        assert charges == [
            cost.threshold_share_sign_ns,
            cost.threshold_share_verify_ns,
            cost.threshold_combine_ns,
            cost.threshold_verify_ns,
        ]

    def test_share_and_combined_are_domain_separated(self):
        ctx, _, _ = self.make_context()
        share = ctx.threshold_share(b"qc")
        assert not ctx.verify_threshold_combined(7, b"qc", share)

    def test_unbound_context_charges_nothing(self):
        authority = KeyAuthority(b"repro")
        ctx = CryptoContext(7, authority, CostModel())
        ctx.sign(b"data")  # must not raise


class TestHashChain:
    def test_append_changes_head(self):
        chain = HashChain()
        initial = chain.head
        chain.append(sha256_digest(b"a"))
        assert chain.head != initial

    def test_head_at_historical_position(self):
        chain = HashChain()
        heads = [chain.head]
        for tag in b"abcdef":
            chain.append(sha256_digest(bytes([tag])))
            heads.append(chain.head)
        for i, head in enumerate(heads):
            assert chain.head_at(i) == head

    def test_truncate_restores_old_head(self):
        chain = HashChain()
        chain.append(sha256_digest(b"a"))
        head_after_one = chain.head
        chain.append(sha256_digest(b"b"))
        chain.truncate(1)
        assert chain.head == head_after_one
        assert len(chain) == 1

    def test_truncate_bounds(self):
        chain = HashChain()
        chain.append(sha256_digest(b"a"))
        with pytest.raises(IndexError):
            chain.truncate(5)

    def test_release_keeps_base_head(self):
        chain = HashChain()
        heads = [chain.head]
        for tag in b"abcde":
            chain.append(sha256_digest(bytes([tag])))
            heads.append(chain.head)
        chain.release_below(3)
        assert len(chain) == 5
        assert chain.head_at(3) == heads[3] and chain.head_at(5) == heads[5]
        with pytest.raises(IndexError):
            chain.head_at(2)
        with pytest.raises(IndexError):
            chain.truncate(2)
        chain.truncate(4)
        assert chain.head == heads[4]
        # Appending after a release extends from the retained head.
        chain.append(sha256_digest(b"e"))
        assert chain.head == heads[5]

    def test_verify_recomputes(self):
        digests = [sha256_digest(bytes([i])) for i in range(5)]
        chain = HashChain()
        for digest in digests:
            chain.append(digest)
        # Walking the links from genesis recomputes the head; a walk that
        # stops one link short does not.
        current = b"\x00" * 32
        for digest in digests[:-1]:
            current = chain_step(current, digest)
        assert current != chain.head
        assert chain_step(current, digests[-1]) == chain.head

    def test_order_matters(self):
        a = HashChain()
        a.append(sha256_digest(b"x"))
        a.append(sha256_digest(b"y"))
        b = HashChain()
        b.append(sha256_digest(b"y"))
        b.append(sha256_digest(b"x"))
        assert a.head != b.head

    @given(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=12))
    def test_rebuild_equals_incremental(self, items):
        chain = HashChain()
        current = b"\x00" * 32
        for item in items:
            digest = sha256_digest(item)
            chain.append(digest)
            current = chain_step(current, digest)
        assert chain.head == current


class TestDigestHelpers:
    def test_fields_digest_is_injective_on_boundaries(self):
        assert fields_digest(b"ab", b"c") != fields_digest(b"a", b"bc")
        assert fields_digest(b"a", b"") != fields_digest(b"", b"a")
        assert fields_digest(1, 2) != fields_digest(2, 1)

    def test_auth_input_separates_sequence_and_epoch(self):
        digest = sha256_digest(b"payload")
        combined = auth_input(digest, 7, 1)
        assert combined.startswith(digest)
        assert combined != auth_input(digest, 8, 1)
        assert combined != auth_input(digest, 7, 2)


SESSION_AUTHORITY = KeyAuthority(b"boot")


def session_context(node_id: int, charge=None) -> CryptoContext:
    """A context for ``node_id`` under the shared test authority."""
    return CryptoContext(node_id, SESSION_AUTHORITY, CostModel(), charge)


class TestHmacVectors:
    KEYS = [(i, bytes([i]) * 8) for i in range(4)]

    @staticmethod
    def make_vector(keys, data):
        return HmacVector(
            tuple([rid for rid, _ in keys]), b"".join([sim_mac(key, data) for _, key in keys])
        )

    def test_vector_verifies_per_receiver(self):
        vector = self.make_vector(self.KEYS, b"msg")
        for rid, key in self.KEYS:
            assert vector.tag_for(rid) == sim_mac(key, b"msg")

    def test_wrong_key_fails(self):
        vector = self.make_vector(self.KEYS, b"msg")
        assert vector.tag_for(0) != sim_mac(b"\x99" * 8, b"msg")

    def test_missing_receiver_fails(self):
        vector = self.make_vector(self.KEYS, b"msg")
        assert not vector.has_entry(42)
        with pytest.raises(KeyError):
            vector.tag_for(42)

    def test_merge_partial_vectors(self):
        first = self.make_vector(self.KEYS[:2], b"msg")
        second = self.make_vector(self.KEYS[2:], b"msg")
        merged = first.merge(second)
        assert merged.receivers() == [0, 1, 2, 3]
        for rid, key in self.KEYS:
            assert merged.tag_for(rid) == sim_mac(key, b"msg")

    def test_merge_dedupes(self):
        vector = self.make_vector(self.KEYS, b"msg")
        assert len(vector.merge(vector).ids) == len(vector.ids)

    def test_wire_size_scales_with_entries(self):
        small = self.make_vector(self.KEYS[:1], b"m")
        large = self.make_vector(self.KEYS, b"m")
        assert large.wire_size() == 4 * small.wire_size()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8, unique=True),
    st.binary(max_size=64),
    st.data(),
)
def test_vector_layout_matches_a_pairs_reference(peers, data, draw):
    """``mac_vector``'s packed tags agree with a (receiver, tag) pairs
    reference, and a flipped tag byte fails only its own receiver."""
    sender = session_context(0)
    vector = sender.mac_vector(tuple(peers), data)
    pairs = [(peer, sim_mac(SESSION_AUTHORITY.session_key(0, peer), data)) for peer in peers]
    assert vector.packed == b"".join(tag for _, tag in pairs)
    for peer, tag in pairs:
        assert vector.has_entry(peer) and vector.tag_for(peer) == tag
    assert not vector.has_entry(0)
    assert vector.wire_size() == len(pairs) * 6

    split = draw.draw(st.integers(min_value=0, max_value=len(peers)))
    first = sender.mac_vector(peers[:split], data)
    overlap = max(split - 1, 0)  # the second part repeats one entry of the first
    second = sender.mac_vector(peers[overlap:], data)
    merged = first.merge(second)
    reference = dict(pairs[:split])
    for peer, tag in pairs[overlap:]:
        reference.setdefault(peer, tag)
    assert merged.receivers() == list(reference)
    assert all(merged.tag_for(peer) == tag for peer, tag in reference.items())

    victim = draw.draw(st.sampled_from(peers))
    offset = peers.index(victim) * HMAC_TAG_SIZE + draw.draw(
        st.integers(min_value=0, max_value=HMAC_TAG_SIZE - 1)
    )
    flipped = bytearray(vector.packed)
    flipped[offset] ^= 0x01
    tampered = HmacVector(vector.ids, bytes(flipped))
    for peer in peers:
        verdict = session_context(peer).verify_vector_from(0, data, tampered)
        assert verdict == (peer != victim)


class TestPairwiseKeys:
    def test_symmetric(self):
        assert SESSION_AUTHORITY.session_key(1, 2) == SESSION_AUTHORITY.session_key(2, 1)
        # Either end of a pair makes the tag the other end checks.
        assert session_context(1).mac_to(2, b"m") == session_context(2).mac_to(1, b"m")

    def test_distinct_pairs(self):
        assert SESSION_AUTHORITY.session_key(1, 2) != SESSION_AUTHORITY.session_key(1, 3)
        assert session_context(1).mac_to(2, b"m") != session_context(1).mac_to(3, b"m")

    def test_authenticate_and_verify(self):
        vector = session_context(0).mac_vector([1, 2, 3], b"payload")
        for receiver in (1, 2, 3):
            assert session_context(receiver).verify_vector_from(0, b"payload", vector)
        assert not session_context(1).verify_vector_from(0, b"tampered", vector)
        # Another sender's keys do not verify.
        assert not session_context(1).verify_vector_from(2, b"payload", vector)

    def test_keys_match_the_bootstrap_derivation(self):
        # A pair's key is the first 8 bytes of
        # SHA-256(secret || min id || max id), 4-byte big-endian ids.
        expected = sha256_digest(b"boot" + (1).to_bytes(4, "big") + (2).to_bytes(4, "big"))[:8]
        assert SESSION_AUTHORITY.session_key(2, 1) == expected


class TestContextMacs:
    def test_vector_charges_and_counts_one_mac_per_peer_in_order(self):
        charges = []
        ctx = session_context(0, charges.append)
        vector = ctx.mac_vector([3, 1, 2], b"body")
        assert vector.receivers() == [3, 1, 2]
        assert charges == [CostModel().hmac_ns] * 3
        assert ctx.op_counts == {"mac": 3}
        for peer in (3, 1, 2):
            assert vector.tag_for(peer) == session_context(0).mac_to(peer, b"body")

    def test_vector_without_my_entry_fails_free(self):
        vector = session_context(0).mac_vector([1, 2], b"body")
        charges = []
        ctx = session_context(3, charges.append)
        assert not ctx.verify_vector_from(0, b"body", vector)
        assert not ctx.verify_vector_from(0, b"body", None)
        assert charges == []
        assert ctx.op_counts == {}

    def test_single_tag_roundtrip_and_tamper(self):
        tag = session_context(4).mac_to(5, b"reply")
        assert session_context(5).verify_mac_from(4, b"reply", tag)
        assert not session_context(5).verify_mac_from(4, b"replx", tag)
        assert not session_context(6).verify_mac_from(4, b"reply", tag)

    def test_every_check_charges_one_mac(self):
        charges = []
        ctx = session_context(1, charges.append)
        tag = session_context(0).mac_to(1, b"m")
        vector = session_context(0).mac_vector([1], b"m")
        assert ctx.verify_mac_from(0, b"m", tag)
        assert not ctx.verify_vector_from(0, b"x", vector)
        assert charges == [CostModel().hmac_ns] * 2
        assert ctx.op_counts == {"mac": 2}
