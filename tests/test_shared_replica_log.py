"""The shared replica log: every family commits through ``ReplicaLog``, so
the invariant monitor checks all of them, and the safety bugs it exposed
in MinBFT, HotStuff and PBFT stay fixed."""

import pytest

from repro.faults.invariants import InvariantMonitor, InvariantViolation
from repro.faults.network import isolate_host
from repro.protocols.adversary import mutate_proposal
from repro.protocols.hotstuff.messages import Proposal
from repro.protocols.log import EntryKind, LogEntry
from repro.protocols.minbft.replica import MinBftCommit, MinBftPrepare
from repro.protocols.messages import batch_digest
from repro.protocols.pbft.messages import PbftNewView, PbftViewChange, PreparedProof
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.sim.clock import ms


def drain(cluster, duration=ms(8)):
    for client in cluster.clients:
        client.next_op = lambda: None
    cluster.sim.run_for(duration)


def deliver(cluster, replica, src, message):
    replica.execute_now(replica.on_message, src, message)
    cluster.sim.run_for(ms(1))


def record_executions(replica):
    """List the (client, request id) of every op ``replica`` executes."""
    executed = []
    execute_op = replica.execute_op

    def recording(op, request=None):
        executed.append(request.key())
        return execute_op(op, request=request)

    replica.execute_op = recording
    return executed


class TestEveryFamilyIsMonitored:
    @pytest.mark.parametrize("protocol", ["pbft", "zyzzyva", "hotstuff", "minbft"])
    def test_forced_conflicting_commit_raises(self, protocol):
        cluster = build_cluster(ClusterOptions(protocol=protocol, num_clients=3, seed=41))
        victim = cluster.replicas[-1]
        others = [r.address for r in cluster.replicas if r is not victim]
        # Cut the victim off from the agreement traffic so the others
        # commit slot 0 without it (Zyzzyva then commits on its slow path).
        isolate_host(cluster.fabric, victim.address, others)
        monitor = InvariantMonitor().attach(cluster)
        run = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(5)).run()
        assert run.completions > 0
        assert monitor.checks > 0
        assert len(victim.log) == 0
        victim.log.append(LogEntry(kind=EntryKind.REQUEST, digest=b"\xee" * 32))
        with pytest.raises(InvariantViolation, match="conflicting commits at slot 0"):
            victim.log.mark_committed_up_to(0)


class TestMinBftCounterOrder:
    def test_duplicated_prepare_is_not_executed_again(self):
        cluster = build_cluster(ClusterOptions(protocol="minbft", num_clients=3, seed=42))
        primary, backup = cluster.replicas[0], cluster.replicas[1]
        prepares = []

        def capture(dst, message):
            if dst == backup.address and isinstance(message, MinBftPrepare):
                prepares.append(message)
            return message

        primary.add_send_interposer(capture)
        Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(3)).run()
        drain(cluster)
        counter, executed = backup.usig.counter, backup.metrics.get("ops_executed")
        assert prepares and backup.metrics.get("ops_executed") > 0
        deliver(cluster, backup, primary.address, prepares[0])
        # No fresh commit UI, no new state, nothing executed.
        assert backup.usig.counter == counter
        assert prepares[0].ui.counter not in backup.states
        assert backup.metrics.get("ops_executed") == executed

    def test_executes_in_primary_counter_order(self):
        cluster = build_cluster(ClusterOptions(protocol="minbft", num_clients=3, seed=43))
        primary, backup = cluster.replicas[0], cluster.replicas[1]
        held = []

        def hold(dst, message):
            if dst == backup.address and isinstance(message, (MinBftPrepare, MinBftCommit)):
                held.append(message)
                return None
            return message

        primary.add_send_interposer(hold)
        reference = record_executions(primary)
        executed = record_executions(backup)
        Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(2)).run()
        drain(cluster)
        assert len(held) > 4 and executed == []
        # The primary's traffic reaches the backup newest first.
        for message in reversed(held):
            backup.execute_now(backup.on_message, primary.address, message)
        cluster.sim.run_for(ms(20))
        assert executed == reference


class TestHotStuffCommitQc:
    def test_forked_prepare_never_executes(self):
        cluster = build_cluster(ClusterOptions(protocol="hotstuff", num_clients=6, seed=44))
        leader, honest, victim = cluster.replicas[0], cluster.replicas[1], cluster.replicas[3]
        forks = []

        def fork_for_victim(dst, message):
            if dst == victim.address and isinstance(message, Proposal):
                forged = mutate_proposal(leader, dst, message)
                if forged is not None:
                    forks.append(forged)
                    return forged
            return message

        leader.add_send_interposer(fork_for_victim)
        reference = record_executions(honest)
        executed = record_executions(victim)
        run = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(5)).run()
        drain(cluster)
        assert run.completions > 0
        assert any(len(fork.batch) > 1 for fork in forks)
        # The victim stalls at the first forked batch rather than
        # executing it: what it ran is a prefix of the honest order.
        assert executed == reference[: len(executed)]
        assert len(executed) < len(reference)


class TestPbftNewViewNullFill:
    def test_no_null_at_or_below_highest_stable_checkpoint(self):
        cluster = build_cluster(ClusterOptions(protocol="pbft", num_clients=1, seed=45))
        new_leader = cluster.replicas[1]
        new_view = 1
        proof = PreparedProof(seq=520, view=0, digest=b"\x01" * 32, batch=())
        stables = {0: 511, 1: 383, 2: 511}
        bucket = new_leader._vc_messages.setdefault(new_view, {})
        for index, stable in stables.items():
            replica = cluster.replicas[index]
            prepared = (proof,) if index == 2 else ()
            vc = PbftViewChange(new_view, stable, prepared, replica.address)
            bucket[replica.address] = PbftViewChange(
                new_view, stable, prepared, replica.address,
                replica.crypto.sign(vc.signed_body()),
            )
        sent = []

        def capture(dst, message):
            if isinstance(message, PbftNewView):
                sent.append(message)
            return message

        new_leader.add_send_interposer(capture)
        new_leader.execute_now(new_leader._try_new_view, new_view)
        cluster.sim.run_for(ms(1))
        assert sent
        seqs = [p.seq for p in sent[0].pre_prepares]
        null = batch_digest(())
        nulls = [p.seq for p in sent[0].pre_prepares if p.digest == null]
        # Slots up to 511 may hold real batches at the replicas that
        # certified checkpoint 511: only 512..519 are null-filled.
        assert nulls == list(range(512, 520))
        assert seqs == list(range(512, 521))
