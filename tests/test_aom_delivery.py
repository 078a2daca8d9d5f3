"""aom delivery tests: ordering, authentication, reassembly, epochs."""

import pytest

from repro.aom.messages import AuthVariant, NetworkFaultModel
from repro.sim.clock import ms

from tests.aom_harness import AomRig


def run_rig(rig, count=6, until=None):
    rig.multicast_many(count)
    rig.sim.run(until=until)


class TestBasicDelivery:
    @pytest.mark.parametrize("variant", [AuthVariant.HMAC, AuthVariant.PUBKEY])
    def test_all_receivers_deliver_in_order(self, variant):
        rig = AomRig(variant=variant)
        run_rig(rig, count=6)
        expected = [(i + 1, f"op{i}") for i in range(6)]
        for delivered in rig.deliveries():
            assert delivered == expected

    def test_sequence_numbers_start_at_one(self):
        rig = AomRig()
        rig.multicast("only")
        rig.sim.run()
        assert rig.deliveries()[0] == [(1, "only")]

    def test_sender_never_learns_receivers(self):
        rig = AomRig()
        # The sender library only ever addresses the group.
        assert rig.sender_lib.group_address.group_id == 7

    def test_delivery_counts_tracked(self):
        rig = AomRig()
        run_rig(rig, count=4)
        for host in rig.receivers:
            assert rig.counter("aom.delivered", node=host.name) == 4
            assert rig.counter("aom.drop_notifications", node=host.name) == 0

    @pytest.mark.parametrize("receivers", [1, 4, 5, 9])
    def test_arbitrary_group_sizes(self, receivers):
        rig = AomRig(receivers=receivers)
        run_rig(rig, count=3)
        for delivered in rig.deliveries():
            assert [seq for seq, _ in delivered] == [1, 2, 3]


class TestHmVectorReassembly:
    def test_multi_subgroup_groups_assemble_full_vector(self):
        rig = AomRig(receivers=6)  # 2 subgroups
        rig.multicast("wide")
        rig.sim.run()
        for host in rig.receivers:
            cert = host.certs[0]
            assert cert.hm_vector is not None
            assert len(cert.hm_vector.ids) == 6  # the *full* vector

    def test_partial_vectors_count_as_messages(self):
        rig = AomRig(receivers=6)
        rig.multicast("wide")
        rig.sim.run()
        # 2 subgroup packets per receiver, 6 receivers = 12 switch legs.
        assert rig.counter("net.packets", event="delivered") >= 12


class TestAuthentication:
    def test_hm_certificate_verifies_for_other_receivers(self):
        rig = AomRig()
        rig.multicast("msg")
        rig.sim.run()
        cert = rig.receivers[0].certs[0]
        for other in rig.receivers[1:]:
            assert other.lib.verify_certificate(cert)

    def test_pk_certificate_verifies_for_other_receivers(self):
        rig = AomRig(variant=AuthVariant.PUBKEY)
        rig.multicast("msg")
        rig.sim.run()
        cert = rig.receivers[0].certs[0]
        for other in rig.receivers[1:]:
            assert other.lib.verify_certificate(cert)

    def test_tampered_hm_certificate_rejected(self):
        from dataclasses import replace

        rig = AomRig()
        rig.multicast("msg")
        rig.sim.run()
        cert = rig.receivers[0].certs[0]
        forged = replace(cert, sequence=cert.sequence + 1)
        assert not rig.receivers[1].lib.verify_certificate(forged)

    def test_tampered_pk_certificate_rejected(self):
        from dataclasses import replace

        rig = AomRig(variant=AuthVariant.PUBKEY)
        rig.multicast("msg")
        rig.sim.run()
        cert = rig.receivers[0].certs[0]
        forged = replace(cert, digest=b"\x00" * 32)
        assert not rig.receivers[1].lib.verify_certificate(forged)

    def test_wrong_epoch_packet_ignored(self):
        from dataclasses import replace

        rig = AomRig()
        rig.multicast("msg")
        rig.sim.run()
        host = rig.receivers[0]
        # Replay the same content claiming a future epoch.
        before = rig.counter("aom.delivered", node=host.name)
        fake = replace(
            host.certs[0], epoch=99
        )  # receivers never saw epoch 99 config
        from repro.aom.messages import AomPacket
        from repro.switchfab.hmac_pipeline import PartialVector

        packet = AomPacket(
            group_id=7, epoch=99, sequence=1, digest=fake.digest,
            payload=fake.payload, sender=0,
            auth=PartialVector(0, 1, fake.hm_vector),
        )
        host.execute_now(host.lib.on_packet, packet)
        rig.sim.run()
        assert rig.counter("aom.delivered", node=host.name) == before


class TestPkHashChain:
    def test_unsigned_packets_delivered_via_chain(self):
        # Force heavy signature skipping: tiny stock, no refill.
        rig = AomRig(
            variant=AuthVariant.PUBKEY,
            aom_kwargs={
                "fpga_kwargs": dict(
                    stock_capacity=256,
                    stock_low_threshold=255,
                    precompute_rate_eps=10.0,
                    max_unsigned_run=4,
                )
            },
        )
        rig.multicast_many(12, spacing_ns=20_000)
        rig.sim.run()
        fpga = rig.sequencer.fpga
        assert fpga.signatures_skipped > 0  # chain actually exercised
        for delivered in rig.deliveries():
            seqs = [s for s, _ in delivered]
            # A trailing unsigned run (< max_unsigned_run) legitimately
            # waits for the next signed packet, which never comes once the
            # stream stops; everything before it must be delivered in order.
            assert len(seqs) >= 12 - 4
            assert seqs == list(range(1, len(seqs) + 1))

    def test_chained_certificates_transfer(self):
        rig = AomRig(
            variant=AuthVariant.PUBKEY,
            aom_kwargs={
                "fpga_kwargs": dict(
                    stock_capacity=256,
                    stock_low_threshold=255,
                    precompute_rate_eps=10.0,
                    max_unsigned_run=4,
                )
            },
        )
        rig.multicast_many(8, spacing_ns=20_000)
        rig.sim.run()
        receiver = rig.receivers[0]
        chained = [c for c in receiver.certs if c.pk_proof and c.pk_proof.links]
        assert chained, "no unsigned packet was certified through the chain"
        for cert in chained:
            assert rig.receivers[1].lib.verify_certificate(cert)

    def test_chained_cert_with_broken_link_rejected(self):
        from dataclasses import replace
        from repro.aom.messages import ChainLink

        rig = AomRig(
            variant=AuthVariant.PUBKEY,
            aom_kwargs={
                "fpga_kwargs": dict(
                    stock_capacity=256,
                    stock_low_threshold=255,
                    precompute_rate_eps=10.0,
                    max_unsigned_run=4,
                )
            },
        )
        rig.multicast_many(8, spacing_ns=20_000)
        rig.sim.run()
        receiver = rig.receivers[0]
        chained = [c for c in receiver.certs if c.pk_proof and c.pk_proof.links]
        cert = chained[0]
        bad_links = tuple(
            ChainLink(l.sequence, b"\x13" * 32, l.prev_digest)
            for l in cert.pk_proof.links
        )
        forged = replace(cert, pk_proof=replace(cert.pk_proof, links=bad_links))
        assert not rig.receivers[1].lib.verify_certificate(forged)


class TestEpochs:
    def test_new_epoch_resets_sequencing(self):
        rig = AomRig()
        rig.multicast_many(3)
        rig.sim.run()
        # Fail over: new sequencer, epoch 2, fresh sequence numbers.
        from repro.aom.messages import FailoverRequest

        for host in rig.receivers[:2]:
            rig.service.handle_failover_request(
                FailoverRequest(7, 1, host.address)
            )
        rig.sim.run_for(ms(100))
        assert rig.service.current_epoch(7) == 2
        rig.multicast("fresh", at=1)
        rig.sim.run()
        for host in rig.receivers:
            assert host.delivered[-1] == (1, "fresh")
            assert host.lib.epoch == 2

    def test_failover_needs_f_plus_one_votes(self):
        rig = AomRig()
        from repro.aom.messages import FailoverRequest

        rig.service.handle_failover_request(FailoverRequest(7, 1, rig.receivers[0].address))
        rig.sim.run_for(ms(100))
        assert rig.service.current_epoch(7) == 1  # one vote is not enough

    def test_stale_epoch_votes_ignored(self):
        rig = AomRig()
        from repro.aom.messages import FailoverRequest

        for host in rig.receivers[:2]:
            rig.service.handle_failover_request(FailoverRequest(7, 0, host.address))
        rig.sim.run_for(ms(100))
        assert rig.service.current_epoch(7) == 1

    def test_old_sequencer_silenced_after_failover(self):
        rig = AomRig()
        old_sequencer = rig.sequencer
        from repro.aom.messages import FailoverRequest

        for host in rig.receivers[:2]:
            rig.service.handle_failover_request(FailoverRequest(7, 1, host.address))
        assert old_sequencer.failed
