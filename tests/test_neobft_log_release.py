"""NeoBFT log release: a replica forgets its log below a sync point only
once every replica has announced that point, and every path that takes a
slot number from a peer copes with a released slot."""

import pytest

from repro.faults.behaviors import crash_replica
from repro.protocols.log import NOOP_DIGEST
from repro.protocols.neobft.messages import (
    GapCommit,
    LogEntrySummary,
    StateTransferRequest,
    SyncMessage,
    ViewChange,
)
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.sim.clock import ms

SYNC_INTERVAL = 64


def build(seed=31):
    return build_cluster(
        ClusterOptions(
            protocol="neobft-hm", num_clients=6, seed=seed,
            replica_kwargs={"sync_interval": SYNC_INTERVAL},
        )
    )


def snapshot(replica):
    log = replica.log
    return len(log), log.low_water, log.exec_cursor, log.commit_cursor, log.head_hash()


def gap_cert(cluster, slot):
    """A quorum of signed drop gap-commits for ``slot`` in the current view."""
    commits = []
    for signer in cluster.replicas[: cluster.replicas[0].group.quorum]:
        commit = GapCommit(signer.view_id, signer.address, slot, True)
        commits.append(
            GapCommit(commit.view, commit.replica, commit.slot, commit.is_drop,
                      signer.crypto.sign(commit.signed_body()))
        )
    return tuple(commits)


def deliver(cluster, replica, src, message):
    replica.execute_now(replica.on_message, src, message)
    cluster.sim.run_for(ms(1))


class TestReleaseWaitsForEveryReplica:
    def test_crashed_replica_pauses_release_until_it_votes_again(self):
        cluster = build()
        victim = cluster.replicas[2]
        peers = [r for r in cluster.replicas if r is not victim]
        crashed = {}

        def crash():
            crashed["recover"] = crash_replica(victim)
            crashed["last_vote"] = victim._last_sync_slot

        cluster.sim.schedule(ms(2), crash)
        Measurement(cluster, warmup_ns=0, duration_ns=ms(6)).run()
        last_vote = crashed["last_vote"]
        assert last_vote > 0
        for peer in peers:
            # The peers committed well past the crash, but low_water is
            # monotone, so checking it now covers the whole outage.
            assert peer.log.commit_cursor > last_vote + 4 * SYNC_INTERVAL
            assert peer.log.low_water <= last_vote

        crashed["recover"]()
        cluster.sim.run_for(ms(1))
        assert victim.metrics.get("state_transfers") == 1
        assert {len(r.log) for r in cluster.replicas} == {len(victim.log)}

        Measurement(cluster, warmup_ns=0, duration_ns=ms(3)).run()
        for replica in cluster.replicas:
            assert replica.log.low_water > last_vote + SYNC_INTERVAL


class TestReleasedSlotsFromPeers:
    @pytest.fixture(scope="class")
    def cluster(self):
        cluster = build()
        Measurement(cluster, warmup_ns=0, duration_ns=ms(4)).run()
        for client in cluster.clients:
            client.next_op = lambda: None
        cluster.sim.run_for(ms(1))
        assert all(r.log.low_water > 2 for r in cluster.replicas)
        return cluster

    def test_state_transfer_from_slot_zero(self, cluster):
        replica, asker = cluster.replicas[1], cluster.replicas[3]
        summaries = replica._summaries_range(0, len(replica.log))
        assert summaries[0].slot == replica.log.low_water
        before = [snapshot(r) for r in cluster.replicas]
        request = StateTransferRequest(replica.view_id.epoch, 0, len(replica.log))
        deliver(cluster, replica, asker.address, request)
        assert [snapshot(r) for r in cluster.replicas] == before

    def test_replayed_gap_certificate_below_low_water(self, cluster):
        replica = cluster.replicas[1]
        slot = replica.log.low_water - 1
        cert = gap_cert(cluster, slot)
        before = snapshot(replica)
        # The gap agreement path: a quorum of gap-commits for the slot.
        for commit in cert:
            deliver(cluster, replica, commit.replica, commit)
        assert replica._gap_certs[slot] == cert
        assert snapshot(replica) == before

    def test_sync_drop_below_low_water(self, cluster):
        replica, peer = cluster.replicas[1], cluster.replicas[3]
        slot = replica.log.low_water - 2
        cert = gap_cert(cluster, slot)
        before = snapshot(replica)
        query_timer = replica._query_timer = replica.set_timer(ms(50), lambda: None)
        # The state sync path: a peer's sync message carries the drop.
        sync = SyncMessage(peer.view_id, peer.address, peer._last_sync_slot, ((slot, cert),))
        sync = SyncMessage(sync.view, sync.replica, sync.slot, sync.drops,
                           peer.crypto.mac_to(replica.address, sync.signed_body()))
        deliver(cluster, replica, peer.address, sync)
        assert replica._gap_certs[slot] == cert
        assert snapshot(replica) == before
        # Recorded like a no-op in place: gap timers are left alone.
        assert replica._query_timer is query_timer
        query_timer.cancel()
        replica._query_timer = None

    def test_merge_skips_noops_below_commit_cursor(self, cluster):
        replica, peer = cluster.replicas[1], cluster.replicas[3]
        slot = replica.log.low_water - 3
        noop = LogEntrySummary(
            slot=slot, is_noop=True, epoch=replica.view_id.epoch,
            digest=NOOP_DIGEST, gap_cert=gap_cert(cluster, slot),
        )
        vc = ViewChange(peer.view_id, peer.view_id.next_leader(), peer.address, (), (noop,))
        before = snapshot(replica)
        merged = replica._merge_logs((vc,))
        assert slot not in merged
        replica._apply_merged_log(merged)
        assert snapshot(replica) == before
