"""Backend, cost-accounting, digests/hash-chain, and HMAC-vector tests."""

import pytest
from hypothesis import given, strategies as st

from repro.aom.messages import auth_input
from repro.crypto.backend import (
    CryptoContext,
    FastBackend,
    KeyAuthority,
    RealBackend,
    make_authority,
)
from repro.crypto.costmodel import CostModel
from repro.crypto.digests import (
    Checkpointer,
    HashChain,
    chain_step,
    fields_digest,
    sha256_digest,
)
from repro.crypto.hmacvec import (
    HmacVector,
    PairwiseKeys,
    compute_hmac,
    make_hmac_vector,
    verify_hmac_entry,
)


@pytest.fixture(params=["fast", "real"])
def authority(request):
    return make_authority(request.param)


class TestBackends:
    def test_sign_verify_roundtrip(self, authority):
        authority.register(1)
        sig = authority.sign_as(1, b"hello")
        assert authority.verify(sig, b"hello")

    def test_tampered_data_rejected(self, authority):
        authority.register(1)
        sig = authority.sign_as(1, b"hello")
        assert not authority.verify(sig, b"hellp")

    def test_unknown_signer_rejected(self, authority):
        authority.register(1)
        sig = authority.sign_as(1, b"hello")
        forged = type(sig)(signer_id=999, payload=sig.payload, scheme=sig.scheme)
        assert not authority.verify(forged, b"hello")

    def test_cross_identity_signature_rejected(self, authority):
        authority.register(1)
        authority.register(2)
        sig = authority.sign_as(1, b"hello")
        relabeled = type(sig)(signer_id=2, payload=sig.payload, scheme=sig.scheme)
        assert not authority.verify(relabeled, b"hello")

    def test_register_idempotent(self, authority):
        authority.register(5)
        sig = authority.sign_as(5, b"x")
        authority.register(5)
        assert authority.verify(sig, b"x")

    def test_wrong_scheme_rejected(self):
        fast = make_authority("fast")
        real = make_authority("real")
        fast.register(1)
        real.register(1)
        sig = fast.sign_as(1, b"data")
        assert not real.verify(sig, b"data")

    def test_unknown_backend_name(self):
        with pytest.raises(ValueError):
            make_authority("quantum")

    def test_fast_payload_is_16_bytes(self):
        auth = make_authority("fast")
        auth.register(3)
        assert auth.sign_as(3, b"m").wire_size() == 16

    def test_real_payload_is_64_bytes(self):
        auth = make_authority("real")
        auth.register(3)
        assert auth.sign_as(3, b"m").wire_size() == 64


class TestCostAccounting:
    def make_context(self):
        charges = []
        authority = make_authority("fast")
        cost = CostModel()
        ctx = CryptoContext(7, authority, cost, charges.append)
        return ctx, charges, cost

    def test_sign_charges_sign_cost(self):
        ctx, charges, cost = self.make_context()
        ctx.sign(b"data")
        assert charges == [cost.ecdsa_sign_ns]

    def test_verify_charges_verify_cost(self):
        ctx, charges, cost = self.make_context()
        sig = ctx.sign(b"data")
        charges.clear()
        ctx.verify(sig, b"data")
        assert charges == [cost.ecdsa_verify_ns]

    def test_mac_charges_hmac_cost(self):
        ctx, charges, cost = self.make_context()
        ctx.mac(b"k" * 8, b"data")
        assert charges == [cost.hmac_ns]

    def test_digest_charges_sha_cost(self):
        ctx, charges, cost = self.make_context()
        ctx.digest(b"data")
        assert charges == [cost.sha256_ns]

    def test_threshold_ops_charge(self):
        ctx, charges, cost = self.make_context()
        share = ctx.threshold_share(b"qc")
        assert ctx.verify_threshold_share(share, b"qc")
        combined = ctx.combine_threshold(b"qc")
        assert ctx.verify_threshold_combined(combined, b"qc")
        assert charges == [
            cost.threshold_share_sign_ns,
            cost.threshold_share_verify_ns,
            cost.threshold_combine_ns,
            cost.threshold_verify_ns,
        ]

    def test_share_and_combined_are_domain_separated(self):
        ctx, _, _ = self.make_context()
        share = ctx.threshold_share(b"qc")
        assert not ctx.verify_threshold_combined(share, b"qc")

    def test_unbound_context_charges_nothing(self):
        authority = make_authority("fast")
        ctx = CryptoContext(7, authority, CostModel())
        ctx.sign(b"data")  # must not raise

    def test_scaled_cost_model(self):
        cost = CostModel().scaled(2.0)
        assert cost.ecdsa_sign_ns == CostModel().ecdsa_sign_ns * 2
        assert cost.hmac_ns == CostModel().hmac_ns * 2


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
        assert HashChain.verify(b"\x00" * 32, digests, chain.head)
        assert not HashChain.verify(b"\x00" * 32, digests[:-1], chain.head)

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

    def test_checkpointer_folds(self):
        cp = Checkpointer()
        first = cp.checkpoint(sha256_digest(b"s1"))
        second = cp.checkpoint(sha256_digest(b"s2"))
        assert first != second
        assert cp.count == 2


class TestHmacVectors:
    KEYS = [(i, bytes([i]) * 8) for i in range(4)]

    def test_vector_verifies_per_receiver(self):
        vector = make_hmac_vector(self.KEYS, b"msg")
        for rid, key in self.KEYS:
            assert verify_hmac_entry(vector, rid, key, b"msg")

    def test_wrong_key_fails(self):
        vector = make_hmac_vector(self.KEYS, b"msg")
        assert not verify_hmac_entry(vector, 0, b"\x99" * 8, b"msg")

    def test_missing_receiver_fails(self):
        vector = make_hmac_vector(self.KEYS, b"msg")
        assert not verify_hmac_entry(vector, 42, b"\x00" * 8, b"msg")
        with pytest.raises(KeyError):
            vector.tag_for(42)

    def test_merge_partial_vectors(self):
        first = make_hmac_vector(self.KEYS[:2], b"msg")
        second = make_hmac_vector(self.KEYS[2:], b"msg")
        merged = first.merge(second)
        assert merged.receivers() == [0, 1, 2, 3]
        for rid, key in self.KEYS:
            assert verify_hmac_entry(merged, rid, key, b"msg")

    def test_merge_dedupes(self):
        vector = make_hmac_vector(self.KEYS, b"msg")
        assert len(vector.merge(vector).tags) == len(vector.tags)

    def test_wire_size_scales_with_entries(self):
        small = make_hmac_vector(self.KEYS[:1], b"m")
        large = make_hmac_vector(self.KEYS, b"m")
        assert large.wire_size() == 4 * small.wire_size()


class TestPairwiseKeys:
    def test_symmetric(self):
        keys = PairwiseKeys(b"boot")
        assert keys.key_between(1, 2) == keys.key_between(2, 1)

    def test_distinct_pairs(self):
        keys = PairwiseKeys(b"boot")
        assert keys.key_between(1, 2) != keys.key_between(1, 3)

    def test_authenticate_and_verify(self):
        keys = PairwiseKeys(b"boot")
        vector = keys.authenticate(0, [1, 2, 3], b"payload")
        for receiver in (1, 2, 3):
            assert keys.verify(0, receiver, b"payload", vector)
        assert not keys.verify(0, 1, b"tampered", vector)
