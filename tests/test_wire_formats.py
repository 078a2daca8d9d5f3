"""Wire-format unit tests: signed bodies are injective across fields,
wire sizes are sane."""

import pytest

from repro.aom.messages import Confirm, OrderingCertificate, AuthVariant
from repro.net.packet import UDP_HEADER_BYTES, wire_size_of
from repro.protocols.messages import ClientReply, ClientRequest
from repro.protocols.neobft.messages import (
    EpochStart,
    GapCommit,
    GapDecision,
    GapDrop,
    GapFind,
    GapPrepare,
    SyncMessage,
    ViewChange,
    ViewId,
)
from repro.protocols.pbft.messages import Checkpoint, Commit, PrePrepare, Prepare


VIEW = ViewId(1, 0)


class TestSignedBodyInjectivity:
    """Two messages differing in any protocol-relevant field must sign
    different bytes — otherwise a signature for one authenticates the
    other."""

    def test_gap_messages_distinguish_slots(self):
        assert GapFind(VIEW, 1).signed_body() != GapFind(VIEW, 2).signed_body()
        assert GapDrop(VIEW, 0, 1).signed_body() != GapDrop(VIEW, 0, 2).signed_body()

    def test_gap_messages_distinguish_views(self):
        other = ViewId(1, 1)
        assert GapFind(VIEW, 1).signed_body() != GapFind(other, 1).signed_body()

    def test_gap_messages_distinguish_replicas(self):
        assert GapDrop(VIEW, 0, 1).signed_body() != GapDrop(VIEW, 1, 1).signed_body()

    def test_prepare_commit_distinguish_decision(self):
        assert (
            GapPrepare(VIEW, 0, 1, True).signed_body()
            != GapPrepare(VIEW, 0, 1, False).signed_body()
        )
        assert (
            GapCommit(VIEW, 0, 1, True).signed_body()
            != GapCommit(VIEW, 0, 1, False).signed_body()
        )

    def test_prepare_and_commit_are_domain_separated(self):
        assert (
            GapPrepare(VIEW, 0, 1, True).signed_body()
            != GapCommit(VIEW, 0, 1, True).signed_body()
        )

    def test_gap_decision_kind_separated(self):
        recv = GapDecision(VIEW, 1, recv_oc=None)  # structurally 'drop'
        drop = GapDecision(VIEW, 1, drop_evidence=())
        assert recv.signed_body() == drop.signed_body()  # both are drops
        real_recv = GapDecision(
            VIEW, 1,
            recv_oc=OrderingCertificate(1, 1, 1, b"d" * 32, None, 0, AuthVariant.HMAC),
        )
        assert real_recv.signed_body() != drop.signed_body()

    def test_epoch_start_fields(self):
        a = EpochStart(2, 10, 0).signed_body()
        assert a != EpochStart(3, 10, 0).signed_body()
        assert a != EpochStart(2, 11, 0).signed_body()
        assert a != EpochStart(2, 10, 1).signed_body()

    def test_sync_fields(self):
        a = SyncMessage(VIEW, 0, 128, ()).signed_body()
        assert a != SyncMessage(VIEW, 0, 256, ()).signed_body()
        assert a != SyncMessage(VIEW, 1, 128, ()).signed_body()

    def test_pbft_bodies(self):
        a = PrePrepare(0, 1, b"d" * 32, ()).signed_body()
        assert a != PrePrepare(0, 2, b"d" * 32, ()).signed_body()
        assert a != PrePrepare(1, 1, b"d" * 32, ()).signed_body()
        assert (
            Prepare(0, 1, b"d" * 32, 2).signed_body()
            != Commit(0, 1, b"d" * 32, 2).signed_body()
        )
        assert (
            Checkpoint(5, b"s" * 32, 0).signed_body()
            != Checkpoint(5, b"s" * 32, 1).signed_body()
        )

    def test_confirm_body_fields(self):
        base = Confirm(7, 1, 3, b"h" * 32, 0, None)
        assert base.signed_body() != Confirm(7, 1, 4, b"h" * 32, 0, None).signed_body()
        assert base.signed_body() != Confirm(7, 2, 3, b"h" * 32, 0, None).signed_body()
        assert base.signed_body() != Confirm(7, 1, 3, b"x" * 32, 0, None).signed_body()

    def test_view_change_covers_log_digests(self):
        from repro.protocols.neobft.messages import LogEntrySummary

        entry_a = LogEntrySummary(0, False, 1, b"a" * 32)
        entry_b = LogEntrySummary(0, False, 1, b"b" * 32)
        vc_a = ViewChange(VIEW, ViewId(1, 1), 0, (), (entry_a,))
        vc_b = ViewChange(VIEW, ViewId(1, 1), 0, (), (entry_b,))
        assert vc_a.signed_body() != vc_b.signed_body()


class TestWireSizes:
    def test_request_size_tracks_op(self):
        small = ClientRequest(1, 1, b"x").wire_size()
        large = ClientRequest(1, 1, b"x" * 500).wire_size()
        assert large - small == 499

    def test_reply_size_tracks_result(self):
        small = ClientReply(0, 0, 1, b"").wire_size()
        large = ClientReply(0, 0, 1, b"r" * 100).wire_size()
        assert large - small == 100

    def test_preprepare_size_includes_batch(self):
        empty = PrePrepare(0, 0, b"d" * 32, ()).wire_size()
        batch = PrePrepare(0, 0, b"d" * 32, tuple(
            ClientRequest(1, i, b"op") for i in range(10)
        )).wire_size()
        assert batch > empty + 10 * 20

    def test_cert_size_includes_vector(self):
        from repro.crypto.hmacvec import HmacVector, sim_mac

        vector = HmacVector(
            tuple(range(8)), b"".join([sim_mac(bytes([i]) * 8, b"m") for i in range(8)])
        )
        cert = OrderingCertificate(1, 1, 1, b"d" * 32, None, 0, AuthVariant.HMAC,
                                   hm_vector=vector)
        bare = OrderingCertificate(1, 1, 1, b"d" * 32, None, 0, AuthVariant.HMAC)
        assert cert.wire_size() > bare.wire_size()


class TestWireSizeCache:
    def test_dispatch_matches_value_shapes(self):
        # Representative payloads through the per-type dispatch table.
        cases = [
            (None, 1), (True, 1), (7, 8), (1.5, 8),
            (b"abcd", 4), ("abc", 3),
            ([1, 2], 2 + 8 + 8), ({"k": b"xy"}, 2 + 1 + 2),
        ]
        for value, expected in cases:
            assert wire_size_of(value) == UDP_HEADER_BYTES + expected, value
