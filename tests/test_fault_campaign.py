"""The chaos campaign engine: schedules, determinism, safety, recovery.

Covers the acceptance bar for the campaign subsystem: a combined
campaign (crash-recover replica + 1% drops + sequencer failover) runs
deterministically under a fixed seed, the invariant monitor sees zero
violations, and post-failover throughput recovers to >= 80% of the
pre-fault rate. Plus unit coverage for schedule validation, the
invariant checks themselves, client retry backoff, the bounded-retry
abort path, and the harness drain loop.
"""

from types import SimpleNamespace

import pytest

from repro.faults import (
    CompletionTimeline,
    FaultCampaign,
    FaultEvent,
    FaultSpec,
    InvariantMonitor,
    InvariantViolation,
    make_silent,
    run_campaign,
)
from repro.protocols.log import EntryKind, LogEntry, ReplicaLog
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.sim.clock import ms, us


# ---------------------------------------------------------------------------
# Schedule validation
# ---------------------------------------------------------------------------


class TestCampaignValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultCampaign([FaultEvent(0, FaultSpec("set_on_fire"))])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="at_ns"):
            FaultCampaign([FaultEvent(-1, FaultSpec("fail_sequencer"))])

    def test_heal_must_follow_injection(self):
        with pytest.raises(ValueError, match="until_ns"):
            FaultCampaign(
                [FaultEvent(ms(5), FaultSpec("fail_sequencer"), until_ns=ms(5))]
            )

    def test_campaign_arms_once(self):
        campaign = FaultCampaign([])
        cluster = build_cluster(ClusterOptions(num_clients=1, seed=3))
        campaign.arm(cluster)
        with pytest.raises(RuntimeError):
            campaign.arm(cluster)

    def test_kind_that_does_not_apply_rejected_at_arm(self):
        # pbft has no sequencer: arming fails before anything is scheduled.
        cluster = build_cluster(ClusterOptions(protocol="pbft", num_clients=1, seed=7))
        pending = cluster.sim.live_events
        campaign = FaultCampaign(
            [
                FaultEvent(ms(1), FaultSpec("crash_replica", target=1), until_ns=ms(2)),
                FaultEvent(ms(3), FaultSpec("fail_sequencer")),
            ]
        )
        with pytest.raises(ValueError, match=r"fail_sequencer#1.*sequencer.*'pbft'"):
            campaign.arm(cluster)
        assert cluster.sim.live_events == pending

    def test_events_sorted_by_time(self):
        campaign = FaultCampaign(
            [
                FaultEvent(ms(10), FaultSpec("fail_sequencer")),
                FaultEvent(ms(2), FaultSpec("crash_replica", target=0)),
            ]
        )
        assert [e.at_ns for e in campaign.events] == [ms(2), ms(10)]


# ---------------------------------------------------------------------------
# The invariant monitor
# ---------------------------------------------------------------------------


def fake_replica(name):
    return SimpleNamespace(name=name, log=ReplicaLog())


def entry(digest):
    return LogEntry(kind=EntryKind.REQUEST, digest=digest)


class TestInvariantMonitor:
    def test_conflicting_commits_raise(self):
        r1, r2 = fake_replica("r1"), fake_replica("r2")
        monitor = InvariantMonitor().attach(SimpleNamespace(replicas=[r1, r2]))
        r1.log.append(entry(b"a" * 32))
        r1.log.mark_committed_up_to(0)
        r2.log.append(entry(b"b" * 32))
        with pytest.raises(InvariantViolation, match="conflicting commits at slot 0"):
            r2.log.mark_committed_up_to(0)
        assert monitor.violations

    def test_matching_commits_pass(self):
        r1, r2 = fake_replica("r1"), fake_replica("r2")
        monitor = InvariantMonitor().attach(SimpleNamespace(replicas=[r1, r2]))
        for replica in (r1, r2):
            replica.log.append(entry(b"a" * 32))
            replica.log.mark_committed_up_to(0)
        assert monitor.checks == 2
        assert monitor.violations == []

    def test_rewritten_committed_prefix_raises(self):
        r1 = fake_replica("r1")
        InvariantMonitor().attach(SimpleNamespace(replicas=[r1]))
        r1.log.append(entry(b"a" * 32))
        r1.log.mark_committed_up_to(0)
        # Abuse the overwrite API against a committed slot, then advance.
        r1.log.overwrite_with_noop(0, evidence=None, view=0)
        r1.log.append(entry(b"c" * 32))
        with pytest.raises(InvariantViolation, match="rewritten"):
            r1.log.mark_committed_up_to(1)

    def test_out_of_order_aom_delivery_raises(self):
        lib = SimpleNamespace(on_deliver=[])
        replica = SimpleNamespace(name="r0", aom_lib=lib)
        InvariantMonitor().attach(SimpleNamespace(replicas=[replica]))

        def deliver(epoch, sequence, what="certificate"):
            for hook in lib.on_deliver:
                hook(epoch, sequence, what)

        deliver(1, 1)
        deliver(1, 2, "drop-notification")
        with pytest.raises(InvariantViolation, match="expected 3"):
            deliver(1, 5)
        # A new epoch restarts the expected stream at 1.
        deliver(2, 1)

    def test_violation_carries_campaign_timeline(self):
        r1, r2 = fake_replica("r1"), fake_replica("r2")
        monitor = InvariantMonitor(context=lambda: "the-fault-schedule")
        monitor.attach(SimpleNamespace(replicas=[r1, r2]))
        r1.log.append(entry(b"a" * 32))
        r1.log.mark_committed_up_to(0)
        r2.log.append(entry(b"b" * 32))
        with pytest.raises(InvariantViolation, match="the-fault-schedule"):
            r2.log.mark_committed_up_to(0)

    def test_detach_removes_hooks(self):
        r1 = fake_replica("r1")
        monitor = InvariantMonitor().attach(SimpleNamespace(replicas=[r1]))
        monitor.detach()
        r1.log.append(entry(b"a" * 32))
        r1.log.mark_committed_up_to(0)
        assert monitor.checks == 0

    def test_detach_empties_on_commit(self):
        r1, r2 = fake_replica("r1"), fake_replica("r2")
        monitor = InvariantMonitor().attach(SimpleNamespace(replicas=[r1, r2]))
        assert len(r1.log.on_commit) == 1 and len(r2.log.on_commit) == 1
        monitor.detach()
        assert r1.log.on_commit == [] and r2.log.on_commit == []

    def test_slot_digests_kept_only_above_lowest_cursor(self):
        r1, r2 = fake_replica("r1"), fake_replica("r2")
        monitor = InvariantMonitor().attach(SimpleNamespace(replicas=[r1, r2]))
        for replica in (r1, r2):
            for tag in b"abcd":
                replica.log.append(entry(bytes([tag]) * 32))
        r1.log.mark_committed_up_to(3)
        assert sorted(monitor._slot_digests) == [0, 1, 2, 3]  # r2 has not compared
        r2.log.mark_committed_up_to(1)
        assert sorted(monitor._slot_digests) == [2, 3]
        # A conflict above the lowest cursor is still caught.
        r2.log.entries[2].digest = b"z" * 32
        with pytest.raises(InvariantViolation, match="slot 2"):
            r2.log.mark_committed_up_to(2)

    def test_aom_receivers_report_through_on_deliver(self):
        cluster = build_cluster(ClusterOptions(protocol="neobft-hm", num_clients=2, seed=3))
        monitor = InvariantMonitor().attach(cluster)
        libs = [replica.aom_lib for replica in cluster.replicas]
        assert all(len(lib.on_deliver) == 1 for lib in libs)
        Measurement(cluster, warmup_ns=0, duration_ns=ms(1)).run()
        # Every sequence each receiver handed over went through the hook.
        for replica, lib in zip(cluster.replicas, libs):
            assert lib.next_seq > 1
            assert monitor._aom_expected[(replica.name, lib.epoch)] == lib.next_seq
        monitor.detach()
        assert all(lib.on_deliver == [] for lib in libs)


# ---------------------------------------------------------------------------
# Client retry backoff and the abort path
# ---------------------------------------------------------------------------


class TestRetryBackoff:
    def make_client(self, **kwargs):
        cluster = build_cluster(
            ClusterOptions(
                protocol="unreplicated", num_clients=1, seed=5, client_kwargs=kwargs
            )
        )
        return cluster, cluster.clients[0]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            self.make_client(retry_backoff=0.5)
        with pytest.raises(ValueError):
            self.make_client(retry_jitter=1.5)
        with pytest.raises(ValueError):
            self.make_client(max_request_retries=0)

    def test_timeout_grows_and_caps(self):
        _, client = self.make_client(
            retry_timeout_ns=ms(1), retry_backoff=2.0, retry_jitter=0.0
        )
        timeouts = []
        for attempt in range(5):
            client._retry_attempt = attempt
            timeouts.append(client._current_retry_timeout())
        assert timeouts[:3] == [ms(1), ms(2), ms(4)]
        # Default cap is 4x the base timeout.
        assert timeouts[3] == ms(4) and timeouts[4] == ms(4)

    def test_jitter_is_bounded_and_seeded(self):
        cluster, client = self.make_client(retry_timeout_ns=ms(1), retry_jitter=0.25)
        draws = [client._current_retry_timeout() for _ in range(50)]
        assert all(ms(1) <= d < ms(1.25) for d in draws)
        assert len(set(draws)) > 1  # jitter actually varies
        # Same seed, same client name -> identical draw sequence.
        _, twin = self.make_client(retry_timeout_ns=ms(1), retry_jitter=0.25)
        assert [twin._current_retry_timeout() for _ in range(50)] == draws

    def test_bounded_retries_abort_and_continue(self):
        cluster, client = self.make_client(
            retry_timeout_ns=us(100), retry_jitter=0.0, max_request_retries=2
        )
        unsilence = make_silent(cluster.replicas[0])
        aborted_ids = []
        client.on_abort = aborted_ids.append
        measurement = Measurement(
            cluster, warmup_ns=0, duration_ns=ms(5), drain_deadline_ns=ms(1)
        )
        result = measurement.run()
        unsilence()
        assert result.completions == 0
        assert result.aborted >= 2  # gave up repeatedly, kept issuing
        assert client.aborted == result.aborted
        assert aborted_ids == sorted(aborted_ids)
        assert client.retries == 2 * result.aborted + client._retry_attempt

    def test_healthy_run_never_aborts(self):
        cluster, client = self.make_client(max_request_retries=1)
        result = Measurement(cluster, warmup_ns=0, duration_ns=ms(2)).run()
        assert result.completions > 0
        assert result.aborted == 0


# ---------------------------------------------------------------------------
# Harness drain
# ---------------------------------------------------------------------------


class TestMeasurementDrain:
    def test_drain_leaves_clients_idle(self):
        cluster = build_cluster(ClusterOptions(num_clients=4, seed=9))
        measurement = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(3))
        measurement.run()
        assert all(c.inflight is None for c in cluster.clients)

    def test_drain_deadline_bounds_a_stuck_cluster(self):
        cluster = build_cluster(
            ClusterOptions(protocol="unreplicated", num_clients=2, seed=9)
        )
        make_silent(cluster.replicas[0])
        measurement = Measurement(
            cluster, warmup_ns=0, duration_ns=ms(2), drain_deadline_ns=ms(4)
        )
        measurement.run()
        # Clients are stuck forever; the drain gave up at the deadline.
        assert any(c.inflight is not None for c in cluster.clients)
        assert cluster.sim.now <= ms(2) + ms(4)

    def test_drain_parameters_validated(self):
        cluster = build_cluster(ClusterOptions(num_clients=1, seed=9))
        with pytest.raises(ValueError):
            Measurement(cluster, drain_step_ns=0)
        with pytest.raises(ValueError):
            Measurement(cluster, drain_deadline_ns=-1)


# ---------------------------------------------------------------------------
# The combined campaign (the acceptance scenario)
# ---------------------------------------------------------------------------

CRASH_AT, CRASH_HEAL = ms(10), ms(35)
DROPS_AT, DROPS_HEAL = ms(5), ms(100)
SEQ_KILL_AT = ms(45)
TOTAL = ms(180)


def combined_campaign():
    return FaultCampaign(
        [
            FaultEvent(
                CRASH_AT,
                FaultSpec("crash_replica", target=2),
                until_ns=CRASH_HEAL,
                label="crash-r2",
            ),
            FaultEvent(
                DROPS_AT,
                FaultSpec("drop_fraction", params={"fraction": 0.01}),
                until_ns=DROPS_HEAL,
                label="drops",
            ),
            FaultEvent(SEQ_KILL_AT, FaultSpec("fail_sequencer"), label="seq-kill"),
        ]
    )


def run_combined(seed=7):
    options = ClusterOptions(
        protocol="neobft-hm",
        num_clients=4,
        seed=seed,
        client_kwargs=dict(retry_timeout_max_ns=ms(10)),
    )
    return run_campaign(
        options, combined_campaign(), warmup_ns=ms(2), duration_ns=TOTAL
    )


class TestCombinedCampaign:
    @pytest.fixture(scope="class")
    def run(self):
        return run_combined()

    def test_no_invariant_violations(self, run):
        assert run.monitor.checks > 1000
        assert run.monitor.violations == []

    def test_failover_completed(self, run):
        assert run.cluster.config_service.failovers_completed == 1
        assert run.cluster.config_service.current_epoch(1) == 2

    def test_post_failover_throughput_recovers(self, run):
        pre_fault = run.completions.rate_between(ms(2), DROPS_AT)
        post_failover = run.completions.rate_between(TOTAL - ms(40), TOTAL)
        assert pre_fault > 0
        assert post_failover >= 0.8 * pre_fault

    def test_crashed_replica_recovered_via_state_transfer(self, run):
        victim = run.cluster.replica_by_id(2)
        assert victim.metrics.get("crash_recoveries") == 1
        assert victim.metrics.get("state_transfers") >= 1
        reference = run.cluster.replica_by_id(0)
        assert victim.log.commit_cursor > 0
        assert len(victim.log) >= reference.log.commit_cursor

    def test_timeline_records_every_event(self, run):
        actions = [(e.action, e.label) for e in run.campaign.timeline]
        assert ("inject", "crash-r2") in actions
        assert ("heal", "crash-r2") in actions
        assert ("inject", "drops") in actions
        assert ("heal", "drops") in actions
        assert ("inject", "seq-kill") in actions
        assert "seq-kill" in run.campaign.describe()

    def test_no_aborts_with_unbounded_retries(self, run):
        assert run.result.aborted == 0

    def test_same_seed_is_bit_identical(self, run):
        replay = run_combined()
        assert replay.completions.times == run.completions.times
        assert replay.result.completions == run.result.completions
        assert replay.result.retries == run.result.retries
        assert replay.campaign.describe() == run.campaign.describe()
        assert replay.monitor.checks == run.monitor.checks

    def test_different_seed_diverges(self, run):
        other = run_campaign(
            ClusterOptions(
                protocol="neobft-hm",
                num_clients=4,
                seed=8,
                client_kwargs=dict(retry_timeout_max_ns=ms(10)),
            ),
            combined_campaign(),
            warmup_ns=ms(2),
            duration_ns=ms(20),
        )
        assert other.completions.times != run.completions.times


class TestCompletionTimeline:
    def test_bucket_size_validated(self):
        cluster = build_cluster(ClusterOptions(num_clients=1, seed=3))
        with pytest.raises(ValueError):
            CompletionTimeline(cluster, bucket_ns=0)

    def test_chains_existing_hooks(self):
        cluster = build_cluster(ClusterOptions(num_clients=2, seed=3))
        measurement = Measurement(cluster, warmup_ns=0, duration_ns=ms(2))
        timeline = CompletionTimeline(cluster, bucket_ns=ms(1))
        result = measurement.run()
        # Both the measurement hook and the timeline saw every completion.
        assert sum(timeline.buckets.values()) == len(timeline.times)
        assert len(timeline.times) >= result.completions > 0


# ---------------------------------------------------------------------------
# Overlapping partitions: each heal lifts only its own blocks
# ---------------------------------------------------------------------------


class TestOverlappingPartitions:
    @staticmethod
    def _blocked_at(events, probes):
        """The fabric's blocked pairs at each probe time, under ``events``."""
        cluster = build_cluster(ClusterOptions(protocol="pbft", num_clients=1, seed=7))
        FaultCampaign(events).arm(cluster)
        seen = {}
        for at_ns in probes:
            cluster.sim.schedule_at(
                at_ns, lambda at_ns=at_ns: seen.update({at_ns: set(cluster.fabric._blocked)})
            )
        cluster.sim.run_for(max(probes) + 1)
        return seen

    def test_partition_inside_isolation(self):
        seen = self._blocked_at(
            [
                FaultEvent(ms(1), FaultSpec("isolate_host", target=2), until_ns=ms(10)),
                FaultEvent(
                    ms(2), FaultSpec("partition", params={"groups": [[2], [3]]}), until_ns=ms(3)
                ),
            ],
            [ms(4), ms(11)],
        )
        assert {(2, 3), (3, 2)} <= seen[ms(4)]
        assert seen[ms(11)] == set()

    def test_overlapping_isolations(self):
        isolate = FaultSpec("isolate_host", target=2)
        seen = self._blocked_at(
            [
                FaultEvent(ms(1), isolate, until_ns=ms(5)),
                FaultEvent(ms(2), isolate, until_ns=ms(8)),
            ],
            [ms(6), ms(9)],
        )
        assert seen[ms(6)] == {pair for peer in (0, 1, 3) for pair in ((2, peer), (peer, 2))}
        assert seen[ms(9)] == set()


# ---------------------------------------------------------------------------
# heal_all semantics: idempotent, reverse order, no double restore
# ---------------------------------------------------------------------------


class TestHealAll:
    @staticmethod
    def _register_counting_kinds(names, heal_log):
        from repro.faults.registry import register_fault_kind

        for name in names:

            def injector(cluster, spec, rng, _name=name):
                return lambda: heal_log.append(_name)

            register_fault_kind(name, injector, "custom")

    @staticmethod
    def _unregister(names):
        from repro.faults.registry import unregister_fault_kind

        for name in names:
            unregister_fault_kind(name)

    def test_heal_all_reverse_injection_order(self):
        heal_log = []
        names = ["t_heal_a", "t_heal_b", "t_heal_c"]
        self._register_counting_kinds(names, heal_log)
        try:
            campaign = FaultCampaign(
                [
                    FaultEvent(ms(1), FaultSpec("t_heal_a")),
                    FaultEvent(ms(2), FaultSpec("t_heal_b")),
                    FaultEvent(ms(3), FaultSpec("t_heal_c")),
                ]
            )
            cluster = build_cluster(ClusterOptions(num_clients=1, seed=5))
            campaign.arm(cluster)
            cluster.sim.run_for(ms(5))
            campaign.heal_all()
            assert heal_log == ["t_heal_c", "t_heal_b", "t_heal_a"]
        finally:
            self._unregister(names)

    def test_heal_all_skips_already_fired_scheduled_heal(self):
        heal_log = []
        names = ["t_heal_x", "t_heal_y"]
        self._register_counting_kinds(names, heal_log)
        try:
            campaign = FaultCampaign(
                [
                    FaultEvent(ms(1), FaultSpec("t_heal_x")),
                    # Scheduled heal fires at ms(2), before heal_all.
                    FaultEvent(ms(1), FaultSpec("t_heal_y"), until_ns=ms(2)),
                ]
            )
            cluster = build_cluster(ClusterOptions(num_clients=1, seed=5))
            campaign.arm(cluster)
            cluster.sim.run_for(ms(4))
            assert heal_log == ["t_heal_y"]
            campaign.heal_all()
            # t_heal_y must NOT be restored a second time.
            assert heal_log == ["t_heal_y", "t_heal_x"]
        finally:
            self._unregister(names)

    def test_heal_all_is_idempotent(self):
        heal_log = []
        names = ["t_heal_once"]
        self._register_counting_kinds(names, heal_log)
        try:
            campaign = FaultCampaign([FaultEvent(ms(1), FaultSpec("t_heal_once"))])
            cluster = build_cluster(ClusterOptions(num_clients=1, seed=5))
            campaign.arm(cluster)
            cluster.sim.run_for(ms(2))
            campaign.heal_all()
            campaign.heal_all()
            assert heal_log == ["t_heal_once"]
        finally:
            self._unregister(names)
