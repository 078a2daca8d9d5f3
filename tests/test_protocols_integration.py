"""End-to-end protocol tests: correctness, convergence, fault tolerance."""

import pytest

from repro.apps.statemachine import CounterApp
from repro.faults.behaviors import make_silent
from repro.net.profiles import NetworkProfile
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.runtime.harness import run_once
from repro.sim.clock import ms, us

ALL = [
    "neobft-hm",
    "neobft-pk",
    "neobft-bn",
    "pbft",
    "zyzzyva",
    "hotstuff",
    "minbft",
    "unreplicated",
]


def run_echo(protocol, clients=3, seed=5, duration=ms(8), **opt_kwargs):
    options = ClusterOptions(protocol=protocol, num_clients=clients, seed=seed, **opt_kwargs)
    cluster = build_cluster(options)
    results = []
    measurement = Measurement(cluster, warmup_ns=ms(1), duration_ns=duration)
    for client in cluster.clients:
        original = client.on_complete

        def hook(request_id, latency, result, _orig=original, _c=client):
            results.append((_c.name, request_id, result))
            _orig(request_id, latency, result)

        client.on_complete = hook
    run = measurement.run()
    # Quiesce: stop the closed loop and drain in-flight work so replica
    # state comparisons see a settled system.
    for client in cluster.clients:
        client.next_op = lambda: None
    cluster.sim.run_for(ms(10))
    return cluster, run, results


@pytest.mark.parametrize("protocol", ALL)
class TestEveryProtocol:
    def test_clients_make_progress(self, protocol):
        cluster, run, results = run_echo(protocol)
        assert run.completions > 10

    def test_latency_reasonable(self, protocol):
        cluster, run, _ = run_echo(protocol)
        assert run.median_latency_us < 5_000

    def test_correct_replicas_execute_same_count(self, protocol):
        cluster, run, _ = run_echo(protocol)
        cluster.sim.run_for(ms(5))  # settle stragglers
        counts = {r.metrics.get("ops_executed") for r in cluster.replicas}
        assert len(counts) == 1


class TestEchoSemantics:
    def test_result_equals_operation(self):
        options = ClusterOptions(protocol="neobft-hm", num_clients=2, seed=8)
        cluster = build_cluster(options)
        sent = []

        def make_op():
            op = b"payload-%04d" % len(sent)
            sent.append(op)
            return op

        got = []
        measurement = Measurement(cluster, warmup_ns=0, duration_ns=ms(5), next_op=make_op)
        for client in cluster.clients:
            orig = client.on_complete
            client.on_complete = lambda rid, lat, res, _o=orig: (got.append(res), _o(rid, lat, res))
        measurement.run()
        assert got
        assert set(got) <= set(sent)


class TestNeoBftConvergence:
    def test_log_heads_match(self):
        cluster, run, _ = run_echo("neobft-hm", clients=4)
        cluster.sim.run_for(ms(5))
        heads = {r.log.head_hash() for r in cluster.replicas}
        assert len(heads) == 1

    def test_replies_require_matching_log_hash(self):
        # A client quorum implies 2f+1 replicas agreed on the whole prefix.
        cluster, run, _ = run_echo("neobft-hm", clients=2)
        assert run.completions > 0

    def test_no_view_changes_in_failure_free_run(self):
        cluster, run, _ = run_echo("neobft-hm", clients=4)
        assert run.replica_metrics.get("view_changes_started", 0) == 0


class TestSilentReplicaTolerance:
    @pytest.mark.parametrize("protocol", ["neobft-hm", "pbft", "hotstuff", "minbft"])
    def test_silent_backup_does_not_stop_progress(self, protocol):
        options = ClusterOptions(protocol=protocol, num_clients=3, seed=6)
        cluster = build_cluster(options)
        make_silent(cluster.replicas[-1])  # never the initial leader
        measurement = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(10))
        run = measurement.run()
        assert run.completions > 10

    def test_neobft_throughput_unaffected_by_silent_replica(self):
        # The headline Figure 7 claim: Zyzzyva-F collapses, NeoBFT does not.
        baseline = run_once(
            ClusterOptions(protocol="neobft-hm", num_clients=16, seed=6),
            warmup_ns=ms(2), duration_ns=ms(10),
        )
        options = ClusterOptions(protocol="neobft-hm", num_clients=16, seed=6)
        cluster = build_cluster(options)
        make_silent(cluster.replicas[3])
        faulty = Measurement(cluster, warmup_ns=ms(2), duration_ns=ms(10)).run()
        assert faulty.throughput_ops > 0.9 * baseline.throughput_ops

    def test_zyzzyva_f_degrades(self):
        baseline = run_once(
            ClusterOptions(protocol="zyzzyva", num_clients=32, seed=6),
            warmup_ns=ms(2), duration_ns=ms(10),
        )
        faulty = run_once(
            ClusterOptions(
                protocol="zyzzyva", num_clients=32, seed=6,
                replica_kwargs={"silent_replicas": {2}},
            ),
            warmup_ns=ms(2), duration_ns=ms(10),
        )
        assert faulty.throughput_ops < 0.75 * baseline.throughput_ops


class TestLeaderFailure:
    def test_pbft_view_change_on_silent_primary(self):
        options = ClusterOptions(
            protocol="pbft", num_clients=2, seed=6,
            client_kwargs={"retry_timeout_ns": ms(3)},
        )
        cluster = build_cluster(options)
        make_silent(cluster.replicas[0])  # the view-0 primary
        measurement = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(60))
        run = measurement.run()
        assert run.completions > 0
        live = cluster.replicas[1]
        assert live.view > 0
        assert live.metrics.get("views_entered") >= 1

    def test_neobft_leader_change_on_silent_leader_with_drops(self):
        # The NeoBFT leader only matters for gap *agreement*: silence it
        # and drop one message's every egress leg, so no replica holds the
        # certificate and query fan-out cannot help — the blocked replicas
        # must replace the leader to commit the slot as a no-op.
        options = ClusterOptions(
            protocol="neobft-hm", num_clients=3, seed=11,
            replica_kwargs={
                "blocked_timeout_ns": ms(2),
                "view_change_timeout_ns": ms(3),
                # Isolate the leader-change path: keep client unicast
                # retries from also triggering sequencer failovers.
                "direct_request_timeout_ns": ms(1_000),
            },
        )
        cluster = build_cluster(options)
        make_silent(cluster.replicas[0])
        # Swallow sequence 30 on every switch->replica leg.
        cluster.fabric.add_drop_filter(
            lambda pkt: getattr(pkt.message, "sequence", None) == 30
            and isinstance(pkt.dst, int)
            and pkt.dst < 4
        )
        measurement = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(80))
        run = measurement.run()
        assert run.completions > 50
        live = [r for r in cluster.replicas[1:]]
        views = {r.view_id for r in live}
        assert all(v.leader_num >= 1 for v in views)
        # The universally dropped slot committed as a no-op in the new view.
        from repro.protocols.log import EntryKind

        reference = live[0]
        # The silent leader never sends SYNC, so no sync point reaches all
        # n replicas and nothing is released: the scan sees every slot.
        assert reference.log.low_water == 0
        noops = [e for e in reference.log.entries if e.kind == EntryKind.NOOP]
        assert noops


class TestGapAgreement:
    def _run_with_victim_drops(self, victim_index, seed=13):
        options = ClusterOptions(protocol="neobft-hm", num_clients=4, seed=seed)
        cluster = build_cluster(options)
        victim = cluster.replicas[victim_index]
        rng = cluster.sim.streams.get("test.drops")
        from repro.faults.network import drop_fraction_for

        drop_fraction_for(cluster.fabric, victim.address, 0.05, rng)
        measurement = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(40))
        run = measurement.run()
        cluster.sim.run_for(ms(10))
        return cluster, run

    def test_non_leader_recovers_via_query(self):
        cluster, run = self._run_with_victim_drops(victim_index=2)
        victim = cluster.replicas[2]
        assert victim.metrics.get("gaps_started") > 0
        assert run.completions > 100
        heads = {len(r.log) for r in cluster.replicas}
        # The victim may trail, but it must not diverge on shared prefix.
        shortest = min(len(r.log) for r in cluster.replicas)
        prefix_heads = {r.log.hash_up_to(shortest - 1) for r in cluster.replicas}
        assert len(prefix_heads) == 1

    def test_leader_runs_gap_agreement(self):
        cluster, run = self._run_with_victim_drops(victim_index=0)
        leader = cluster.replicas[0]
        assert leader.metrics.get("gaps_started") > 0
        assert leader.metrics.get("gaps_resolved") > 0
        assert run.completions > 100

    def test_logs_fill_gaps_with_requests_or_noops(self):
        cluster, run = self._run_with_victim_drops(victim_index=2)
        victim = cluster.replicas[2]
        # Every slot up to the execution cursor is occupied; slots below
        # the low-water mark were executed and committed before release.
        assert victim.log.low_water <= min(victim.log.commit_cursor, victim.log.exec_cursor)
        for slot in range(victim.log.low_water, victim.log.exec_cursor):
            assert victim.log.get(slot) is not None
