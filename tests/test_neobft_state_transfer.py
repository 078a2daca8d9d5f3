"""State transfer: a lagging replica catches up across an epoch change."""

import pytest

from repro.faults.behaviors import make_silent
from repro.faults.sequencer import fail_sequencer
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.sim.clock import ms


class TestLaggardCatchUp:
    def test_partitioned_replica_rejoins_after_failover(self):
        """Partition a replica, run, fail the sequencer, heal: the laggard
        must catch up (state transfer) and finish the epoch change with
        the rest of the group."""
        options = ClusterOptions(protocol="neobft-hm", num_clients=6, seed=41)
        cluster = build_cluster(options)
        sim = cluster.sim
        victim = cluster.replicas[2]
        peers = [r.address for r in cluster.replicas if r is not victim] + [
            c.address for c in cluster.clients
        ]

        from repro.faults.network import isolate_host

        heal_holder = {}

        def cut():
            heal_holder["heal"] = isolate_host(cluster.fabric, victim.address, peers)

        def heal_and_fail():
            heal_holder["heal"]()
            fail_sequencer(cluster.config_service.sequencer_for(1))

        sim.schedule(ms(5), cut)
        sim.schedule(ms(25), heal_and_fail)

        measurement = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(280))
        run = measurement.run()
        for client in cluster.clients:
            client.next_op = lambda: None
        sim.run_for(ms(30))

        assert cluster.config_service.failovers_completed >= 1
        assert run.completions > 500
        # The victim rejoined the new epoch with a consistent log prefix.
        live = [r for r in cluster.replicas]
        shortest = min(len(r.log) for r in live)
        assert shortest > 0
        heads = {r.log.hash_up_to(shortest - 1) for r in live}
        assert len(heads) == 1
        assert victim.view_id.epoch == cluster.replicas[0].view_id.epoch

    def test_catchup_query_path_fills_merge_holes(self):
        """A replica that fell behind mid-epoch drains through the query
        catch-up instead of misaligning its log."""
        from repro.faults.network import drop_fraction_for

        options = ClusterOptions(protocol="neobft-hm", num_clients=6, seed=42)
        cluster = build_cluster(options)
        victim = cluster.replicas[1]
        rng = cluster.sim.streams.get("burst")
        remove = drop_fraction_for(cluster.fabric, victim.address, 0.5, rng)
        cluster.sim.schedule(ms(8), remove)
        run = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(40)).run()
        for client in cluster.clients:
            client.next_op = lambda: None
        cluster.sim.run_for(ms(20))
        assert run.completions > 200
        shortest = min(len(r.log) for r in cluster.replicas)
        heads = {r.log.hash_up_to(shortest - 1) for r in cluster.replicas}
        assert len(heads) == 1
        # Slots are aligned: the victim's entries match others' digests
        # (over the slots both still retain; the shared chain head above
        # covers the released prefix).
        reference = cluster.replicas[0]
        start = max(victim.log.low_water, reference.log.low_water)
        for slot in range(start, min(len(victim.log), len(reference.log))):
            assert victim.log.get(slot).digest == reference.log.get(slot).digest
