"""Adversarial message handling in NeoBFT: forged or malformed exception-
path messages must never corrupt replica state."""

import pytest

from repro.protocols.neobft.messages import (
    EpochStart,
    GapDecision,
    GapDrop,
    GapFind,
    GapPrepare,
    Query,
    QueryReply,
    ViewChange,
    ViewId,
    ViewStart,
)
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.sim.clock import ms


@pytest.fixture
def cluster():
    built = build_cluster(ClusterOptions(protocol="neobft-hm", num_clients=2, seed=30))
    measurement = Measurement(built, warmup_ns=0, duration_ns=ms(3))
    measurement.run()
    for client in built.clients:
        client.next_op = lambda: None
    built.sim.run_for(ms(3))
    return built


def deliver(cluster, replica, src, message):
    replica.execute_now(replica.on_message, src, message)
    cluster.sim.run_for(ms(1))


class TestGapMessageValidation:
    def test_gap_find_from_non_leader_ignored(self, cluster):
        replica = cluster.replicas[1]
        attacker = cluster.replicas[2]
        forged = GapFind(replica.view_id, slot=0)
        forged = GapFind(forged.view, forged.slot,
                         attacker.crypto.sign(forged.signed_body()))
        log_before = len(replica.log)
        deliver(cluster, replica, attacker.address, forged)
        assert len(replica.log) == log_before
        assert replica.metrics.get("gaps_started") == 0

    def test_gap_decision_without_evidence_rejected(self, cluster):
        replica = cluster.replicas[1]
        leader = cluster.replicas[0]
        slot = len(replica.log) + 3
        # A (hypothetically Byzantine) leader claims "drop" with no
        # gap-drop evidence at all.
        decision = GapDecision(replica.view_id, slot, drop_evidence=())
        decision = GapDecision(
            decision.view, decision.slot, None, (),
            leader.crypto.sign(decision.signed_body()),
        )
        deliver(cluster, replica, leader.address, decision)
        assert replica._gaps.get(slot) is None or replica._gaps[slot].decision is None

    def test_gap_decision_with_duplicate_signers_rejected(self, cluster):
        replica = cluster.replicas[1]
        leader = cluster.replicas[0]
        other = cluster.replicas[2]
        slot = len(replica.log) + 3
        view = replica.view_id
        one_drop = GapDrop(view, other.address, slot)
        one_drop = GapDrop(view, other.address, slot,
                           other.crypto.sign(one_drop.signed_body()))
        evidence = (one_drop, one_drop, one_drop)  # 3 copies of one vote
        decision = GapDecision(view, slot, drop_evidence=evidence)
        decision = GapDecision(
            view, slot, None, evidence, leader.crypto.sign(decision.signed_body())
        )
        deliver(cluster, replica, leader.address, decision)
        state = replica._gaps.get(slot)
        assert state is None or state.decision is None

    def test_gap_prepare_with_bad_signature_ignored(self, cluster):
        replica = cluster.replicas[1]
        attacker = cluster.replicas[2]
        slot = len(replica.log) + 1
        prepare = GapPrepare(replica.view_id, attacker.address, slot, True)
        prepare = GapPrepare(
            prepare.view, prepare.replica, prepare.slot, prepare.is_drop,
            attacker.crypto.sign(b"wrong-bytes"),
        )
        deliver(cluster, replica, attacker.address, prepare)
        state = replica._gaps.get(slot)
        assert state is None or attacker.address not in state.prepares[True]

    def test_query_reply_with_wrong_slot_cert_ignored(self, cluster):
        replica = cluster.replicas[1]
        # A real certificate for slot k cannot fill slot k+1.
        entry = replica.log.get(len(replica.log) - 1)
        cert = entry.evidence
        log_before = len(replica.log)
        fake = QueryReply(replica.view_id, slot=log_before + 5, oc=cert)
        deliver(cluster, replica, cluster.replicas[0].address, fake)
        assert len(replica.log) == log_before


class TestViewChangeValidation:
    def test_view_start_from_wrong_leader_ignored(self, cluster):
        replica = cluster.replicas[1]
        attacker = cluster.replicas[2]  # not the leader of (1, 1)
        new_view = ViewId(1, 1)  # leader_num 1 -> replica 1, not 2
        start = ViewStart(new_view, ())
        start = ViewStart(new_view, (), attacker.crypto.sign(start.signed_body()))
        deliver(cluster, replica, attacker.address, start)
        assert replica.view_id == ViewId(1, 0)

    def test_view_start_without_quorum_ignored(self, cluster):
        replica = cluster.replicas[1]
        leader_of_next = cluster.replicas[1]  # (1,1) -> replica 1; send to 2
        target = cluster.replicas[2]
        new_view = ViewId(1, 1)
        vc = ViewChange(ViewId(1, 0), new_view, leader_of_next.address, (), ())
        vc = ViewChange(vc.view, vc.new_view, vc.replica, (), (),
                        leader_of_next.crypto.sign(vc.signed_body()))
        start = ViewStart(new_view, (vc,))
        start = ViewStart(new_view, (vc,),
                          leader_of_next.crypto.sign(start.signed_body()))
        deliver(cluster, target, leader_of_next.address, start)
        assert target.view_id == ViewId(1, 0)

    def test_single_view_change_does_not_trigger_join(self, cluster):
        # The f+1 join rule: one replica alone cannot drag others along.
        replica = cluster.replicas[1]
        attacker = cluster.replicas[2]
        vc = ViewChange(ViewId(1, 0), ViewId(1, 5), attacker.address, (), ())
        vc = ViewChange(vc.view, vc.new_view, vc.replica, (), (),
                        attacker.crypto.sign(vc.signed_body()))
        deliver(cluster, replica, attacker.address, vc)
        assert not replica.in_view_change

    def test_epoch_start_with_bad_signature_ignored(self, cluster):
        replica = cluster.replicas[1]
        attacker = cluster.replicas[2]
        epoch_start = EpochStart(2, 10, attacker.address,
                                 attacker.crypto.sign(b"garbage"))
        deliver(cluster, replica, attacker.address, epoch_start)
        assert (2, 10) not in replica._epoch_start_votes or \
            attacker.address not in replica._epoch_start_votes[(2, 10)]


class TestStaleMessages:
    def test_old_view_query_ignored(self, cluster):
        leader = cluster.replicas[0]
        stale = Query(ViewId(0, 0), slot=0)

        def sent():
            return cluster.sim.metrics.snapshot().counter("net.sent", host=leader.name)

        sent_before = sent()
        deliver(cluster, leader, cluster.replicas[1].address, stale)
        assert sent() == sent_before

    def test_progress_continues_after_garbage(self, cluster):
        # After all the forged traffic above, the group must still work.
        for client in cluster.clients:
            client.next_op = lambda: b"post-garbage"
            client.start()
        cluster.sim.run_for(ms(5))
        heads = {r.log.head_hash() for r in cluster.replicas}
        assert len(heads) == 1
