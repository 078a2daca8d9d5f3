"""Fault undo paths: every primitive must heal cleanly mid-run.

Each test injects a fault into a live cluster, heals it while the run
continues, and asserts both that clean behaviour returns (completions
flow again) and that the fault's side effects stop accumulating
(Byzantine metrics stop incrementing).
"""

import pytest

from repro.faults import FaultCampaign, FaultEvent, FaultSpec
from repro.faults.behaviors import (
    corrupt_replies,
    crash_replica,
    delay_everything,
    make_silent,
)
from repro.faults.sequencer import equivocate_sequencer, fail_sequencer, flap_sequencer
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.sim.clock import ms, us


def neobft_cluster(num_clients=4, seed=11, **kwargs):
    return build_cluster(
        ClusterOptions(protocol="neobft-hm", num_clients=num_clients, seed=seed, **kwargs)
    )


def start_clients(cluster):
    measurement = Measurement(cluster, warmup_ns=0, duration_ns=0)
    for client in cluster.clients:
        client.start()
    return measurement


def completions(cluster):
    return sum(c.completions for c in cluster.clients)


class TestReplicaBehaviourRestore:
    def test_make_silent_restore_mid_run(self):
        cluster = neobft_cluster()
        start_clients(cluster)
        sim = cluster.sim
        sim.run_for(ms(2))
        victim = cluster.replica_by_id(3)
        restore = make_silent(victim)
        sim.run_for(ms(4))
        dropped = victim.metrics.get("byzantine_dropped")
        assert dropped > 0
        restore()
        before = completions(cluster)
        sim.run_for(ms(4))
        # Clean throughput returns and the fault metric stops moving.
        assert completions(cluster) > before
        assert victim.metrics.get("byzantine_dropped") == dropped

    def test_corrupt_replies_restore_mid_run(self):
        cluster = neobft_cluster()
        start_clients(cluster)
        sim = cluster.sim
        sim.run_for(ms(2))
        victim = cluster.replica_by_id(1)
        restore = corrupt_replies(victim)
        sim.run_for(ms(4))
        corrupted = victim.metrics.get("byzantine_corrupted")
        assert corrupted > 0
        restore()
        before = completions(cluster)
        sim.run_for(ms(4))
        assert completions(cluster) > before
        assert victim.metrics.get("byzantine_corrupted") == corrupted

    def test_delay_everything_restore_mid_run(self):
        cluster = neobft_cluster()
        start_clients(cluster)
        sim = cluster.sim
        sim.run_for(ms(2))
        victim = cluster.replica_by_id(2)
        restore = delay_everything(victim, us(200))

        def received():
            return sim.metrics.snapshot().counter("net.received", host=victim.name)

        def window(duration):
            busy, seen = victim.cpu.busy_ns, received()
            sim.run_for(duration)
            return (victim.cpu.busy_ns - busy) / max(1, received() - seen)

        slowed_per_msg = window(ms(2))
        restore()
        before = completions(cluster)
        clean_per_msg = window(ms(2))
        assert completions(cluster) > before
        # The 200 us per-message padding is gone: the replica is back to
        # its real (orders of magnitude cheaper) processing cost.
        assert slowed_per_msg >= us(200)
        assert clean_per_msg < slowed_per_msg / 10

    def test_crash_recover_replays_state_transfer(self):
        cluster = neobft_cluster()
        start_clients(cluster)
        sim = cluster.sim
        sim.run_for(ms(2))
        victim = cluster.replica_by_id(3)
        recover = crash_replica(victim)
        sim.run_for(ms(6))
        assert victim.metrics.get("crash_dropped") > 0
        behind = len(victim.log)
        reference = len(cluster.replica_by_id(0).log)
        assert reference > behind  # it really slept through traffic
        recover()
        recover()  # double-recover is a no-op
        sim.run_for(ms(6))
        assert victim.metrics.get("crash_recoveries") == 1
        assert victim.metrics.get("state_transfers") == 1
        # State transfer closed the gap (within the tail still in flight).
        assert len(victim.log) > behind
        assert len(victim.log) >= reference


class TestOverlappingFaultsHealOutOfOrder:
    """Two faults on one replica, healed first-in-first-out.

    Each fault removes only its own interposers, so after both heals the
    replica is clean and catches up with its peers.
    """

    def run_overlap(self, first: FaultSpec):
        cluster = build_cluster(
            ClusterOptions(protocol="neobft-hm", num_clients=4, seed=7)
        )
        measurement = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(10))
        FaultCampaign(
            [
                FaultEvent(ms(1), first, until_ns=ms(3)),
                FaultEvent(
                    ms(2), FaultSpec("silent_replica", target=2), until_ns=ms(5)
                ),
            ]
        ).arm(cluster)
        measurement.run()
        victim = cluster.replica_by_id(2)
        assert len(victim.log) >= len(cluster.replica_by_id(0).log)
        assert victim._send_interposers == []
        assert victim._receive_interposers == []
        return victim

    def test_crash_then_silent(self):
        victim = self.run_overlap(FaultSpec("crash_replica", target=2))
        assert victim.metrics.get("crash_recoveries") == 1

    def test_slow_then_silent(self):
        self.run_overlap(
            FaultSpec("slow_replica", target=2, params={"delay_ns": us(50)})
        )


class TestSequencerFaultRestore:
    def test_equivocate_restore_mid_run(self):
        cluster = neobft_cluster()
        start_clients(cluster)
        sim = cluster.sim
        sim.run_for(ms(2))
        sequencer = cluster.config_service.sequencer_for(1)
        split = {0: b"\x00" * 32}
        restore = equivocate_sequencer(sequencer, split)
        sim.run_for(ms(2))
        restore()
        assert sequencer.equivocation is None
        before = completions(cluster)
        sim.run_for(ms(4))
        assert completions(cluster) > before

    def test_fail_sequencer_recover_before_failover(self):
        cluster = neobft_cluster()
        start_clients(cluster)
        sim = cluster.sim
        sim.run_for(ms(2))
        sequencer = cluster.config_service.sequencer_for(1)
        recover = fail_sequencer(sequencer)
        sim.run_for(ms(3))
        recover()
        before = completions(cluster)
        sim.run_for(ms(6))
        assert completions(cluster) > before
        # Healed fast enough that no failover was ever needed.
        assert cluster.config_service.failovers_completed == 0

    def test_flap_sequencer_stop_is_idempotent(self):
        cluster = neobft_cluster()
        start_clients(cluster)
        sim = cluster.sim
        sim.run_for(ms(1))
        sequencer = cluster.config_service.sequencer_for(1)
        stop = flap_sequencer(sim, sequencer, down_ns=us(200), up_ns=us(800))
        sim.run_for(ms(4))
        stop()
        stop()  # safe to call twice
        assert not sequencer.failed
        before = completions(cluster)
        sim.run_for(ms(4))
        assert completions(cluster) > before

    def test_flap_validates_phases(self):
        cluster = neobft_cluster()
        sequencer = cluster.config_service.sequencer_for(1)
        with pytest.raises(ValueError):
            flap_sequencer(cluster.sim, sequencer, down_ns=0, up_ns=100)
        with pytest.raises(ValueError):
            flap_sequencer(cluster.sim, sequencer, down_ns=100, up_ns=-1)
