"""USIG trusted-component tests: uniqueness, monotonicity, unforgeability."""

import pytest

from repro.crypto.backend import CryptoContext, KeyAuthority
from repro.crypto.costmodel import CostModel
from repro.crypto.digests import sha256_digest
from repro.protocols.minbft.usig import Usig, UsigCertificate


@pytest.fixture
def rig():
    authority = KeyAuthority(b"repro")
    charges = []
    crypto = CryptoContext(0, authority, CostModel(), charges.append)
    usig = Usig(0, authority, crypto)
    return usig, authority, crypto, charges


class TestUsig:
    def test_counter_starts_at_one(self, rig):
        usig, *_ = rig
        ui = usig.create_ui(sha256_digest(b"m"))
        assert ui.counter == 1

    def test_counter_monotonic_and_gapless(self, rig):
        usig, *_ = rig
        counters = [usig.create_ui(sha256_digest(bytes([i]))).counter for i in range(10)]
        assert counters == list(range(1, 11))

    def test_verify_roundtrip(self, rig):
        usig, authority, crypto, _ = rig
        digest = sha256_digest(b"msg")
        ui = usig.create_ui(digest)
        assert usig.verify_ui(ui, digest)

    def test_cross_replica_verification(self):
        authority = KeyAuthority(b"repro")
        crypto_a = CryptoContext(0, authority, CostModel())
        crypto_b = CryptoContext(1, authority, CostModel())
        usig_a = Usig(0, authority, crypto_a)
        usig_b = Usig(1, authority, crypto_b)
        digest = sha256_digest(b"msg")
        ui = usig_a.create_ui(digest)
        assert usig_b.verify_ui(ui, digest)

    def test_wrong_message_rejected(self, rig):
        usig, *_ = rig
        ui = usig.create_ui(sha256_digest(b"m1"))
        assert not usig.verify_ui(ui, sha256_digest(b"m2"))

    def test_forged_counter_rejected(self, rig):
        usig, *_ = rig
        digest = sha256_digest(b"m")
        ui = usig.create_ui(digest)
        forged = UsigCertificate(ui.replica, ui.counter + 1, ui.attestation)
        assert not usig.verify_ui(forged, digest)

    def test_forged_replica_rejected(self, rig):
        usig, *_ = rig
        digest = sha256_digest(b"m")
        ui = usig.create_ui(digest)
        forged = UsigCertificate(ui.replica + 1, ui.counter, ui.attestation)
        assert not usig.verify_ui(forged, digest)

    def test_no_two_messages_share_a_counter(self, rig):
        usig, *_ = rig
        first = usig.create_ui(sha256_digest(b"a"))
        second = usig.create_ui(sha256_digest(b"a"))  # same message, even
        assert first.counter != second.counter

    def test_costs_charged(self, rig):
        usig, _, crypto, charges = rig
        digest = sha256_digest(b"m")
        ui = usig.create_ui(digest)
        usig.verify_ui(ui, digest)
        assert crypto.cost.usig_create_ns in charges
        assert crypto.cost.usig_verify_ns in charges


class TestViewIds:
    def test_lexicographic_order(self):
        from repro.protocols.neobft.messages import ViewId

        assert ViewId(1, 0) < ViewId(1, 1) < ViewId(2, 0) < ViewId(2, 5)

    def test_next_leader_same_epoch(self):
        from repro.protocols.neobft.messages import ViewId

        view = ViewId(3, 7)
        assert view.next_leader() == ViewId(3, 8)

    def test_next_epoch_bumps_both(self):
        from repro.protocols.neobft.messages import ViewId

        view = ViewId(3, 7)
        nxt = view.next_epoch()
        assert nxt.epoch == 4
        assert nxt > view
