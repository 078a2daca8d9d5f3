"""Sender library and sequencer switch unit tests."""

import pytest

from repro.aom.messages import AuthVariant
from repro.net.packet import GroupAddress
from repro.sim.clock import ms

from tests.aom_harness import AomRig


class TestSenderLib:
    def test_digest_covers_canonical_bytes(self):
        from repro.crypto.digests import sha256_digest

        rig = AomRig()
        digest = None

        def send():
            nonlocal digest
            digest = rig.sender_lib.multicast("payload", b"canonical-bytes")

        rig.sender.execute_now(send)
        rig.sim.run()
        assert digest == sha256_digest(b"canonical-bytes")
        assert rig.receivers[0].certs[0].digest == digest

    def test_sent_counter(self):
        rig = AomRig()
        rig.multicast_many(3)
        rig.sim.run()
        assert rig.counter("aom.multicasts", node="sender") == 3


class TestSequencerSwitch:
    def test_sequences_monotonic(self):
        rig = AomRig()
        rig.multicast_many(5)
        rig.sim.run()
        assert rig.sequencer.sequence == 5
        assert rig.counter("aom.sequenced", group=7) == 5

    def test_sequenced_counts_tail_dropped_stamps(self):
        # A slow pipe with no queue tail-drops every packet that arrives
        # while the engine is busy; each of them was still stamped.
        rig = AomRig(
            aom_kwargs={"hmac_kwargs": {"base_vector_rate_pps": 1e3, "max_queue_ns": 0}}
        )
        rig.multicast_many(5)
        rig.sim.run()
        drops = rig.counter("switch.tail_drops", group=7)
        assert drops > 0
        assert rig.sequencer.sequence == 5
        assert rig.counter("aom.sequenced", group=7) == 5
        assert len(rig.receivers[0].certs) == 5 - drops

    def test_failed_switch_drops_everything(self):
        rig = AomRig()
        rig.sequencer.fail()
        rig.multicast_many(3)
        rig.sim.run()
        assert rig.counter("switch.tail_drops", group=7) == 3
        assert all(host.delivered == [] for host in rig.receivers)

    def test_recovered_switch_resumes(self):
        rig = AomRig()
        rig.sequencer.fail()
        rig.multicast("lost")
        rig.sim.run()
        rig.sequencer.recover()
        rig.multicast("found")
        rig.sim.run()
        # The failed packet consumed no sequence number (ingress drop), so
        # the first delivered message is sequence 1.
        for host in rig.receivers:
            assert host.delivered == [(1, "found")]

    def test_pk_chain_register_advances(self):
        rig = AomRig(variant=AuthVariant.PUBKEY)
        initial = rig.sequencer._last_header_digest
        rig.multicast("one")
        rig.sim.run()
        assert rig.sequencer._last_header_digest != initial

    def test_packets_without_digest_rejected_by_receivers(self):
        # Sending raw (non-libAOM) traffic to the group address: the
        # switch stamps a zero digest; receivers never deliver it as a
        # valid message for NeoBFT-style bindings, but it still consumes
        # a sequence number.
        rig = AomRig()
        rig.sender.execute_now(rig.sender.send, GroupAddress(7), "raw-bytes")
        rig.multicast("legit")
        rig.sim.run()
        for host in rig.receivers:
            assert (2, "legit") in host.delivered

    def test_wrong_group_id_ignored_by_receivers(self):
        rig = AomRig()
        rig.multicast("ok")
        rig.sim.run()
        packet = None
        # Replay a delivered packet under a different group id.
        cert = rig.receivers[0].certs[0]
        from repro.aom.messages import AomPacket
        from repro.switchfab.hmac_pipeline import PartialVector

        bogus = AomPacket(
            group_id=99, epoch=1, sequence=2, digest=cert.digest,
            payload=cert.payload, sender=0,
            auth=PartialVector(0, 1, cert.hm_vector),
        )
        host = rig.receivers[0]
        before = rig.counter("aom.delivered", node=host.name)
        host.execute_now(host.lib.on_packet, bogus)
        rig.sim.run()
        assert rig.counter("aom.delivered", node=host.name) == before
