"""A signature verifies only for the signer its verifier names.

Each test has one replica (or a USIG key, or a replica acting as the aom
switch) sign under names that are not its own, and checks that the
receiving replica rejects the evidence, while the same evidence signed
by the named signers is accepted.
"""

from dataclasses import replace

import pytest

from repro.aom.messages import AuthVariant, PkProof
from repro.crypto.backend import CryptoContext, KeyAuthority
from repro.crypto.costmodel import CostModel
from repro.crypto.digests import fields_digest, sha256_digest
from repro.protocols.log import NOOP_DIGEST, EntryKind
from repro.protocols.minbft.usig import Usig
from repro.protocols.neobft.messages import GapCommit, GapDecision, GapDrop, LogEntrySummary
from repro.protocols.pbft.messages import PbftNewView, PbftViewChange
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.sim.clock import ms

from tests.aom_harness import AomRig


def quiet_cluster(protocol):
    """A 4-replica cluster that ran a little load, with its clients stopped."""
    cluster = build_cluster(ClusterOptions(protocol=protocol, num_clients=2, seed=30))
    Measurement(cluster, warmup_ns=0, duration_ns=ms(3)).run()
    for client in cluster.clients:
        client.next_op = lambda: None
    cluster.sim.run_for(ms(3))
    return cluster


def run_on(cluster, replica, fn, *args):
    """``fn(*args)`` run as a handler on ``replica``'s CPU; its result."""
    out = []
    replica.execute_now(lambda: out.append(fn(*args)))
    cluster.sim.run_for(ms(1))
    return out[0]


def signed_by(signer, message):
    return replace(message, signature=signer.crypto.sign(message.signed_body()))


class TestNeoBftGapCertificate:
    """Replica 3 signs gap votes under the names of replicas 0, 1 and 2."""

    @pytest.fixture
    def cluster(self):
        return quiet_cluster("neobft-hm")

    def commits(self, cluster, slot, forged):
        view = cluster.replicas[0].view_id
        named = cluster.replicas[:3]
        signers = [cluster.replicas[3]] * 3 if forged else named
        return tuple(
            signed_by(signer, GapCommit(view, replica.address, slot, True))
            for replica, signer in zip(named, signers)
        )

    @pytest.mark.parametrize("forged", [True, False])
    def test_entry_is_valid(self, cluster, forged):
        replica = cluster.replicas[0]
        slot = len(replica.log)
        summary = LogEntrySummary(
            slot=slot, is_noop=True, epoch=replica.view_id.epoch, digest=NOOP_DIGEST,
            gap_cert=self.commits(cluster, slot, forged),
        )
        assert run_on(cluster, replica, replica._entry_is_valid, summary) is not forged

    @pytest.mark.parametrize("forged", [True, False])
    def test_apply_foreign_gap_cert(self, cluster, forged):
        replica = cluster.replicas[0]
        slot = len(replica.log) - 1
        assert replica.log.get(slot).kind == EntryKind.REQUEST
        cert = self.commits(cluster, slot, forged)
        run_on(cluster, replica, replica._apply_foreign_gap_cert, slot, cert)
        assert (slot in replica._gap_certs) is not forged
        if forged:
            assert replica.log.get(slot).kind == EntryKind.REQUEST

    @pytest.mark.parametrize("forged", [True, False])
    def test_gap_decision_drop_evidence(self, cluster, forged):
        replica = cluster.replicas[0]
        view = replica.view_id
        slot = len(replica.log)
        named = cluster.replicas[:3]
        signers = [cluster.replicas[3]] * 3 if forged else named
        evidence = tuple(
            signed_by(signer, GapDrop(view, named_replica.address, slot))
            for named_replica, signer in zip(named, signers)
        )
        decision = GapDecision(view, slot, drop_evidence=evidence)
        valid = run_on(cluster, replica, replica._validate_drop_evidence, decision)
        assert valid is not forged


class TestUsigAttestation:
    def test_ui_attested_by_the_replicas_own_key_rejected(self):
        authority = KeyAuthority(b"repro")
        crypto = CryptoContext(1, authority, CostModel())
        usig = Usig(1, authority, crypto)
        digest = sha256_digest(b"m")
        genuine = usig.create_ui(digest)
        assert usig.verify_ui(genuine, digest)
        # The same UI body, attested by replica 1's ordinary signing key
        # instead of its enclave.
        body = fields_digest(b"usig", 1, genuine.counter, digest)
        forged = replace(genuine, attestation=crypto.sign(body))
        assert not usig.verify_ui(forged, digest)


class TestAomPkCertificate:
    def test_certificate_signed_by_a_replica_rejected(self):
        rig = AomRig(variant=AuthVariant.PUBKEY)
        rig.multicast_many(4, spacing_ns=20_000)
        rig.sim.run()
        cert = rig.receivers[0].certs[0]
        verifier = rig.receivers[1].lib
        assert verifier.verify_certificate(cert)
        # Receiver 0 signs the certified packet's header digest itself.
        signature = rig.receivers[0].lib.crypto.sign(cert.header_digest())
        forged = replace(cert, pk_proof=PkProof(signature, ()))
        assert not verifier.verify_certificate(forged)


class TestPbftNewView:
    @pytest.mark.parametrize("forged", [True, False])
    def test_view_changes_signed_by_the_new_primary_alone(self, forged):
        cluster = quiet_cluster("pbft")
        primary = cluster.replicas[1]  # leads view 1
        target = cluster.replicas[2]
        named = [cluster.replicas[i] for i in (0, 2, 3)]
        view_changes = tuple(
            signed_by(
                primary if forged else replica,
                PbftViewChange(1, target.last_stable, (), replica.address),
            )
            for replica in named
        )
        new_view = signed_by(primary, PbftNewView(1, view_changes, ()))
        target.execute_now(target.on_message, primary.address, new_view)
        cluster.sim.run_for(ms(1))
        assert target.view == (0 if forged else 1)
