"""Protocol-specific unit behaviours: Zyzzyva history chains and
fill-hole, HotStuff quorum certificates, NeoBFT state sync, PBFT
checkpoints, unreplicated at-most-once."""

import pytest

from repro.faults.network import drop_fraction_for
from repro.protocols.messages import ClientReply, ClientRequest
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.sim.clock import ms


def run_cluster(protocol, clients=3, duration=ms(8), seed=31, **kwargs):
    cluster = build_cluster(
        ClusterOptions(protocol=protocol, num_clients=clients, seed=seed, **kwargs)
    )
    run = Measurement(cluster, warmup_ns=ms(1), duration_ns=duration).run()
    for client in cluster.clients:
        client.next_op = lambda: None
    cluster.sim.run_for(ms(8))
    return cluster, run


class TestZyzzyva:
    def test_history_chains_agree(self):
        cluster, _ = run_cluster("zyzzyva")
        histories = {r.log.head_hash() for r in cluster.replicas}
        assert len(histories) == 1

    def test_order_log_retained_for_fill_hole(self):
        cluster, _ = run_cluster("zyzzyva")
        leader = cluster.replicas[0]
        assert len(leader.log)
        orders = [leader.log.get(seq).evidence for seq in range(len(leader.log))]
        assert [order.seq for order in orders] == list(range(leader.next_seq))

    def test_fill_hole_recovers_from_order_req_loss(self):
        cluster = build_cluster(ClusterOptions(protocol="zyzzyva", num_clients=3, seed=32))
        victim = cluster.replicas[2]
        rng = cluster.sim.streams.get("test.drops")
        drop_fraction_for(cluster.fabric, victim.address, 0.05, rng)
        run = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(25)).run()
        for client in cluster.clients:
            client.next_op = lambda: None
        cluster.sim.run_for(ms(10))
        assert run.completions > 50
        # The victim caught up via fill-hole: same history as the rest.
        assert victim.log.head_hash() == cluster.replicas[0].log.head_hash()

    def test_fast_path_used_when_all_replicas_live(self):
        cluster, run = run_cluster("zyzzyva")
        assert sum(c.slow_path_commits for c in cluster.clients) == 0

    def test_slow_path_used_with_silent_replica(self):
        cluster = build_cluster(
            ClusterOptions(
                protocol="zyzzyva", num_clients=3, seed=33,
                replica_kwargs={"silent_replicas": {3}},
            )
        )
        run = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(8)).run()
        assert run.completions > 10
        assert sum(c.slow_path_commits for c in cluster.clients) > 0


class TestHotStuff:
    def test_qcs_cover_all_three_phases(self):
        cluster, run = run_cluster("hotstuff", duration=ms(15))
        assert run.completions > 5
        leader = cluster.replicas[0]
        assert len(leader.log) > 0

    def test_replicas_execute_identically(self):
        cluster, _ = run_cluster("hotstuff", duration=ms(15))
        counts = {r.metrics.get("ops_executed") for r in cluster.replicas}
        assert len(counts) == 1

    def test_decide_carries_commit_qc_only(self):
        from repro.crypto.backend import CryptoContext, KeyAuthority
        from repro.crypto.costmodel import CostModel
        from repro.protocols.hotstuff.messages import Phase, QuorumCert, qc_body

        authority = KeyAuthority(b"repro")
        ctx = CryptoContext(0, authority, CostModel())
        body = qc_body(0, 1, Phase.PREPARE, b"d")
        prepare_qc = QuorumCert(0, 1, Phase.PREPARE, b"d", ctx.combine_threshold(body))
        # A prepare QC must not validate as a commit QC (domain separation
        # by the phase inside the signed body).
        commit_body = qc_body(0, 1, Phase.COMMIT, b"d")
        assert not ctx.verify_threshold_combined(0, commit_body, prepare_qc.combined)


class TestNeoBftStateSync:
    def test_sync_points_advance_commit_cursor(self):
        cluster, run = run_cluster(
            "neobft-hm", clients=6, duration=ms(15),
            replica_kwargs={"sync_interval": 64},
        )
        assert run.replica_metrics.get("sync_points", 0) > 0
        for replica in cluster.replicas:
            log = replica.log
            assert log.commit_cursor > 0
            # Committed prefix is flagged and never exceeds the log; the
            # released part of it lies below the retained entries.
            assert log.low_water <= log.commit_cursor <= len(log)
            committed = log.entries[: log.commit_cursor - log.low_water]
            assert all(e.committed for e in committed)

    SYNC_INTERVAL = 64

    @pytest.fixture(scope="class")
    def short_and_long_logs(self):
        """Replica logs after a 4 ms and a 16 ms run at ``SYNC_INTERVAL``."""
        logs = {}
        for duration in (ms(4), ms(16)):
            cluster, _ = run_cluster(
                "neobft-hm", clients=6, duration=duration,
                replica_kwargs={"sync_interval": self.SYNC_INTERVAL},
            )
            logs[duration] = [replica.log for replica in cluster.replicas]
        short, long = logs[ms(4)], logs[ms(16)]
        assert min(len(log) for log in long) > 3 * max(len(log) for log in short)
        return short, long

    def test_commit_releases_undo_closures(self, short_and_long_logs):
        sync_interval = self.SYNC_INTERVAL
        short, long = short_and_long_logs
        for log in short + long:
            assert log.commit_cursor > 0
            committed = log.entries[: log.commit_cursor - log.low_water]
            assert all(e.undo is None for e in committed)
            # Only the uncommitted suffix past the last sync point holds
            # undo, so the count does not grow with the run.
            held = sum(e.undo is not None for e in log.entries)
            assert held < sync_interval

    def test_sync_points_release_log_prefix(self, short_and_long_logs):
        sync_interval = self.SYNC_INTERVAL
        short, long = short_and_long_logs
        for log in short + long:
            assert 0 < log.low_water <= log.commit_cursor
            # Entries and chain heads are kept only past the last sync
            # point every replica announced, however long the run.
            assert len(log.entries) == len(log) - log.low_water < 3 * sync_interval
            assert log.get(log.low_water - 1) is None
        for group in (short, long):
            # The chain head at the highest low-water mark is still there
            # at every replica, and they agree on it.
            mark = max(log.low_water for log in group)
            assert len({log.hash_up_to(mark - 1) for log in group}) == 1

    def test_view_change_payload_shrinks_with_sync(self):
        cluster, _ = run_cluster(
            "neobft-hm", clients=6, duration=ms(15),
            replica_kwargs={"sync_interval": 64},
        )
        replica = cluster.replicas[1]
        suffix = replica._log_summary()
        assert len(suffix) == len(replica.log) - replica.log.commit_cursor


class TestPbftCheckpoints:
    def test_stable_checkpoints_garbage_collect(self):
        cluster, run = run_cluster(
            "pbft", clients=6, duration=ms(20),
            replica_kwargs={"checkpoint_interval": 16},
        )
        replica = cluster.replicas[1]
        assert replica.last_stable >= 0
        # Executed slots at or below the stable checkpoint are gone.
        assert all(seq > replica.last_stable or not state.executed
                   for seq, state in replica.slots.items())

    def test_stable_checkpoints_release_log_prefix(self):
        cluster, _ = run_cluster(
            "pbft", clients=6, duration=ms(20),
            replica_kwargs={"checkpoint_interval": 16},
        )
        for replica in cluster.replicas:
            log = replica.log
            # A log slot is a seq: everything up to the stable checkpoint
            # that the replica executed is released.
            assert log.low_water == min(replica.last_stable + 1, log.exec_cursor) > 0
            assert len(log) - log.low_water < 2 * 16

    def test_checkpoint_digests_match(self):
        cluster, _ = run_cluster("pbft", clients=4, duration=ms(15))
        digests = {r.app.digest() for r in cluster.replicas}
        assert len(digests) == 1


class TestUnreplicated:
    def test_stale_request_not_reexecuted(self):
        cluster, _ = run_cluster("unreplicated", clients=1, duration=ms(2))
        server, client = cluster.replicas[0], cluster.clients[0]
        assert client.completions > 1
        executed = server.metrics.get("ops_executed")
        body = ClientRequest(client.address, 1, b"stale").canonical()
        stale = ClientRequest(
            client.address, 1, b"stale",
            client.crypto.mac_vector(client.group.replica_addrs, body),
        )
        client.execute_now(client.send, server.address, stale)
        cluster.sim.run_for(ms(1))
        assert server.metrics.get("ops_executed") == executed


class TestLeaderClient:
    """The shared client sends a fresh request to the leader of the newest
    view a *verified* reply named (PBFT here)."""

    def first_sends(self, forge_view=None, reply_view=None):
        cluster = build_cluster(ClusterOptions(protocol="pbft", num_clients=1, seed=5))
        client = cluster.clients[0]
        sends = []
        client.add_send_interposer(
            lambda dst, message: sends.append((dst, message.request_id)) or message
        )
        ops = [b"a", b"b"]
        client.next_op = lambda: ops.pop(0) if ops else None
        client.start()
        cluster.sim.run_for(ms(0.005))
        assert client.inflight is not None and not sends[1:]
        request_id = client.inflight.request_id
        if forge_view is not None:
            client.on_message(1, ClientReply(forge_view, 1, request_id, b"a", tag=b"\0" * 4))
        if reply_view is not None:
            cluster.replicas[1].reply_to_client(client.address, reply_view, request_id, b"a")
        cluster.sim.run_for(ms(2))
        assert client.completions == 2
        return client, sends

    def test_unverified_reply_leaves_the_view(self):
        client, sends = self.first_sends(forge_view=5)
        assert sends == [(0, 1), (0, 2)]
        assert client.view == 0

    def test_verified_reply_moves_the_view(self):
        client, sends = self.first_sends(reply_view=1)
        assert sends == [(0, 1), (1, 2)]
        assert client.view == 1
