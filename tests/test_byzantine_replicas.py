"""Byzantine replica adversaries: forgery boundaries, safety, recovery.

The active-adversary behaviours (equivocating primary, stale-view
replayer, corrupt-MAC sender, vote withholder) must never break safety
with at most f Byzantine replicas — and PBFT must additionally
view-change away from a corrupt primary and recover client throughput,
asserted via the :class:`CompletionTimeline` buckets.
"""

import random

import pytest

from repro.apps.statemachine import CounterApp
from repro.crypto.hmacvec import HMAC_TAG_SIZE, HmacVector
from repro.faults import (
    CompletionTimeline,
    CounterOp,
    InvariantMonitor,
    check_counter_history_with_gaps,
    corrupt_macs,
    equivocate_primary,
    replay_stale_views,
    withhold_votes,
)
from repro.protocols import adversary
from repro.protocols.pbft.messages import PrePrepare, Prepare
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.sim.clock import ms

ONE = (1).to_bytes(8, "big", signed=True)


def run_with_fault(protocol, fault, duration=ms(20), seed=11, at_ns=None):
    """Counter workload with ``fault(cluster)`` applied (optionally late)."""
    options = ClusterOptions(
        protocol=protocol, num_clients=4, seed=seed, app_factory=CounterApp
    )
    cluster = build_cluster(options)
    monitor = InvariantMonitor().attach(cluster)
    measurement = Measurement(
        cluster, warmup_ns=ms(2), duration_ns=duration, next_op=lambda: ONE
    )
    timeline = CompletionTimeline(cluster, bucket_ns=ms(5))
    history = []
    for client in cluster.clients:
        original = client.on_complete

        def hook(request_id, latency, result, _client=client, _orig=original):
            now = cluster.sim.now
            history.append(
                CounterOp(
                    client=_client.name,
                    invoked_at=now - latency,
                    completed_at=now,
                    delta=1,
                    result=int.from_bytes(result, "big", signed=True),
                )
            )
            _orig(request_id, latency, result)

        client.on_complete = hook
    if at_ns is None:
        fault(cluster)
    else:
        cluster.sim.schedule_at(at_ns, lambda: fault(cluster))
    measurement.run()
    return cluster, monitor, timeline, history


# ---------------------------------------------------------------------------
# Interposer-level units (stub replica: no cluster needed)
# ---------------------------------------------------------------------------


class StubReplica:
    """Just enough of BaseReplica for interposer behaviours."""

    def __init__(self):
        self.sent = []
        self._send_interposers = []
        self.metrics = _StubMetrics()

    def add_send_interposer(self, interposer):
        self._send_interposers.append(interposer)

        def remove():
            if interposer in self._send_interposers:
                self._send_interposers.remove(interposer)

        return remove

    def send(self, dst, message):
        for interposer in list(self._send_interposers):
            message = interposer(dst, message)
            if message is None:
                return
        self.sent.append((dst, message))

    def peers(self):
        return [1, 2, 3]


class _StubMetrics:
    def __init__(self):
        self.counts = {}

    def add(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def get(self, name):
        return self.counts.get(name, 0)


class TestWithholdVotes:
    def test_votes_dropped_proposals_pass(self):
        replica = StubReplica()
        undo = withhold_votes(replica)
        vote = Prepare(0, 1, b"d" * 32, 2)
        proposal = PrePrepare(0, 1, b"d" * 32, ())
        replica.send(1, vote)
        replica.send(1, proposal)
        assert [m for _, m in replica.sent] == [proposal]
        assert replica.metrics.get("byzantine_withheld") == 1
        undo()
        replica.send(1, vote)
        assert vote in [m for _, m in replica.sent]


class TestCorruptMacs:
    def test_garbles_every_tag(self):
        replica = StubReplica()
        corrupt_macs(replica)
        tag = bytes(range(HMAC_TAG_SIZE))
        message = Prepare(0, 1, b"d" * 32, 2, auth=HmacVector((3,), tag))
        replica.send(3, message)
        (_, sent), = replica.sent
        assert sent.auth.tag_for(3) == bytes(b ^ 0xFF for b in tag)
        assert replica.metrics.get("byzantine_bad_macs") == 1

    def test_unauthenticated_messages_untouched(self):
        replica = StubReplica()
        corrupt_macs(replica)
        message = Prepare(0, 1, b"d" * 32, 2)
        replica.send(3, message)
        assert replica.sent == [(3, message)]

    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="fraction"):
            corrupt_macs(StubReplica(), fraction=0.0)
        with pytest.raises(ValueError, match="rng"):
            corrupt_macs(StubReplica(), fraction=0.5)

    def test_fractional_garbling_draws_from_rng(self):
        replica = StubReplica()
        corrupt_macs(replica, fraction=0.5, rng=random.Random(1))
        for _ in range(50):
            replica.send(
                3, Prepare(0, 1, b"d" * 32, 2, auth=HmacVector((3,), b"t" * HMAC_TAG_SIZE))
            )
        garbled = replica.metrics.get("byzantine_bad_macs")
        assert 0 < garbled < 50


class TestReplayStaleViews:
    def test_replays_older_view_traffic(self):
        replica = StubReplica()
        replay_stale_views(replica)
        old = Prepare(0, 1, b"d" * 32, 2)
        new = Prepare(1, 2, b"e" * 32, 2)
        replica.send(1, old)
        replica.send(1, new)
        sent = [m for _, m in replica.sent]
        # The stale view-0 message is re-sent alongside the view-1 one.
        assert sent.count(old) == 2
        assert new in sent
        assert replica.metrics.get("byzantine_stale_replays") == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            replay_stale_views(StubReplica(), capacity=0)


class TestAdversaryRegistry:
    def test_pbft_pre_prepare_forks_with_valid_self_auth(self):
        # Registry-level: a registered mutator exists and forks the batch.
        assert PrePrepare in adversary.PROPOSAL_MUTATORS
        assert adversary.is_vote(Prepare(0, 1, b"d" * 32, 2))
        assert not adversary.is_vote(PrePrepare(0, 1, b"d" * 32, ()))

    def test_conflicting_batch_shapes(self):
        assert adversary.conflicting_batch(()) is None
        assert adversary.conflicting_batch(("a",)) == ("a", "a")
        assert adversary.conflicting_batch(("a", "b")) == ("b", "a")


# ---------------------------------------------------------------------------
# Safety under active adversaries (integration)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", ["pbft", "zyzzyva", "minbft", "hotstuff"])
class TestEquivocatingPrimarySafety:
    def test_fork_never_commits_both_sides(self, protocol):
        cluster, monitor, _, history = run_with_fault(
            protocol, lambda cl: equivocate_primary(cl.replicas[0])
        )
        assert cluster.replicas[0].metrics.get("byzantine_equivocations") > 0
        assert monitor.violations == []
        assert len(history) > 20  # the correct majority keeps committing
        check_counter_history_with_gaps(history)


class TestVoteWithholderLiveness:
    def test_quorums_form_without_one_voter(self):
        cluster, monitor, _, history = run_with_fault(
            "pbft", lambda cl: withhold_votes(cl.replicas[2])
        )
        assert cluster.replicas[2].metrics.get("byzantine_withheld") > 0
        assert monitor.violations == []
        assert len(history) > 50
        check_counter_history_with_gaps(history)


# ---------------------------------------------------------------------------
# PBFT Byzantine-primary regression: view change + throughput recovery
# ---------------------------------------------------------------------------


class TestPbftByzantinePrimaryRecovery:
    def test_corrupt_primary_triggers_view_change_and_recovers(self):
        cluster, monitor, timeline, history = run_with_fault(
            "pbft",
            lambda cl: corrupt_macs(cl.replicas[0]),
            duration=ms(60),
            seed=7,
            at_ns=ms(10),
        )
        # The fault fired and the backups deposed the primary.
        assert cluster.replicas[0].metrics.get("byzantine_bad_macs") > 0
        assert sum(r.metrics.get("primary_suspicions") for r in cluster.replicas) > 0
        assert all(r.view >= 1 for r in cluster.replicas)
        assert all(r.metrics.get("views_entered") >= 1 for r in cluster.replicas)
        # Safety held throughout.
        assert monitor.violations == []
        check_counter_history_with_gaps(history)
        # Throughput: healthy before the fault, stalled during it, and
        # recovered to >= half the pre-fault rate after the view change.
        before = timeline.rate_between(ms(2), ms(10))
        recovered = timeline.rate_between(ms(40), ms(62))
        assert before > 0
        assert timeline.first_completion_after(ms(35)) is not None
        assert recovered >= 0.5 * before

    def test_equivocating_primary_mismatch_votes_detected(self):
        cluster, monitor, _, _ = run_with_fault(
            "pbft",
            lambda cl: equivocate_primary(cl.replicas[0], victims=[2]),
        )
        # The victim's prepares reference the forged digest; correct
        # replicas observe (and refuse to count) the mismatch.
        mismatches = sum(
            r.metrics.get("digest_mismatch_votes") for r in cluster.replicas
        )
        assert mismatches > 0
        assert monitor.violations == []
