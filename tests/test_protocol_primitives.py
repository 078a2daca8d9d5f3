"""Unit tests for protocol building blocks: log, batching,
client message authentication."""

import pytest

from repro.crypto.backend import CryptoContext, KeyAuthority
from repro.crypto.costmodel import CostModel
from repro.crypto.digests import sha256_digest
from repro.protocols.batching import Batcher, TimedBatcher
from repro.protocols.log import EntryKind, LogEntry, NOOP_DIGEST, ReplicaLog
from repro.protocols.messages import ClientReply, ClientRequest


def request_entry(tag: bytes) -> LogEntry:
    return LogEntry(kind=EntryKind.REQUEST, digest=sha256_digest(tag), request=tag)


class TestReplicaLog:
    def test_append_and_hash_chain(self):
        log = ReplicaLog()
        h0 = log.head_hash()
        log.append(request_entry(b"a"))
        assert log.head_hash() != h0
        assert log.hash_up_to(0) == log.head_hash()

    def test_hash_prefix_stability(self):
        log = ReplicaLog()
        log.append(request_entry(b"a"))
        head_after_a = log.head_hash()
        log.append(request_entry(b"b"))
        assert log.hash_up_to(0) == head_after_a

    def test_execution_cursor(self):
        log = ReplicaLog()
        log.append(request_entry(b"a"))
        log.append(request_entry(b"b"))
        assert log.next_unexecuted() == 0
        log.mark_executed(0, b"ra", None)
        assert log.next_unexecuted() == 1
        log.mark_executed(1, b"rb", None)
        assert log.next_unexecuted() is None

    def test_out_of_order_execution_rejected(self):
        log = ReplicaLog()
        log.append(request_entry(b"a"))
        log.append(request_entry(b"b"))
        with pytest.raises(ValueError):
            log.mark_executed(1, b"r", None)

    def test_rollback_runs_undos_in_reverse(self):
        log = ReplicaLog()
        order = []
        for tag in (b"a", b"b", b"c"):
            slot = log.append(request_entry(tag))
            log.mark_executed(slot, tag, lambda t=tag: order.append(t))
        log.rollback_to(1)
        assert order == [b"c", b"b"]
        assert log.exec_cursor == 1

    def test_overwrite_with_noop_rebuilds_chain(self):
        log = ReplicaLog()
        for tag in (b"a", b"b", b"c"):
            slot = log.append(request_entry(tag))
            log.mark_executed(slot, tag, None)
        old_head = log.head_hash()
        log.overwrite_with_noop(1, evidence="cert", view=3)
        assert log.head_hash() != old_head
        entry = log.get(1)
        assert entry.kind == EntryKind.NOOP
        assert entry.digest == NOOP_DIGEST
        assert entry.committed
        # Chain equals a freshly built log with the same contents.
        rebuilt = ReplicaLog()
        rebuilt.append(request_entry(b"a"))
        rebuilt.append(LogEntry(kind=EntryKind.NOOP, digest=NOOP_DIGEST))
        rebuilt.append(request_entry(b"c"))
        assert log.head_hash() == rebuilt.head_hash()

    def test_overwrite_returns_suffix_for_reexecution(self):
        log = ReplicaLog()
        undone = []
        for tag in (b"a", b"b", b"c"):
            slot = log.append(request_entry(tag))
            log.mark_executed(slot, tag, lambda t=tag: undone.append(t))
        suffix = log.overwrite_with_noop(1, evidence=None, view=1)
        assert undone == [b"c", b"b"]
        assert len(suffix) == 2
        assert log.next_unexecuted() == 1

    def test_overwrite_out_of_range(self):
        with pytest.raises(IndexError):
            ReplicaLog().overwrite_with_noop(0, None, 0)

    def test_commit_cursor_monotone(self):
        log = ReplicaLog()
        for tag in (b"a", b"b", b"c"):
            log.append(request_entry(tag))
        log.mark_committed_up_to(1)
        assert log.commit_cursor == 2
        log.mark_committed_up_to(0)
        assert log.commit_cursor == 2  # never regresses
        assert log.get(0).committed and log.get(1).committed

    def test_commit_releases_undo_of_covered_slots(self):
        log = ReplicaLog()
        undone = []
        for tag in (b"a", b"b", b"c"):
            slot = log.append(request_entry(tag))
            log.mark_executed(slot, tag, lambda t=tag: undone.append(t))
        log.mark_committed_up_to(1)
        assert log.get(0).undo is None and log.get(1).undo is None
        assert log.get(2).undo is not None
        log.rollback_to(2)
        assert undone == [b"c"]

    def test_executing_committed_slot_stores_no_undo(self):
        log = ReplicaLog()
        for tag in (b"a", b"b"):
            log.append(request_entry(tag))
        log.mark_committed_up_to(0)
        log.mark_executed(0, b"ra", lambda: None)
        log.mark_executed(1, b"rb", lambda: None)
        assert log.get(0).undo is None
        assert log.get(1).undo is not None


class TestReplicaLogRelease:
    def executed_log(self, count: int, committed: int) -> ReplicaLog:
        log = ReplicaLog()
        for i in range(count):
            slot = log.append(request_entry(bytes([i])))
            log.mark_executed(slot, b"", lambda: None)
        log.mark_committed_up_to(committed - 1)
        return log

    def test_release_keeps_slot_numbers_and_prefix_hash(self):
        log = self.executed_log(6, committed=4)
        heads = [log.hash_up_to(s) for s in range(6)]
        tail = log.get(4)
        log.release_below(3)
        assert log.low_water == 3
        assert len(log) == log.next_slot == 6
        assert len(log.entries) == 3
        assert log.get(2) is None and log.get(0) is None
        assert log.get(4) is tail
        assert log.hash_up_to(log.low_water - 1) == heads[2]
        assert log.hash_up_to(5) == heads[5]
        assert log.append(request_entry(b"x")) == 6

    def test_release_clamps_to_commit_and_exec_cursors(self):
        log = self.executed_log(6, committed=4)
        log.release_below(10)
        assert log.low_water == 4  # commit cursor
        log = ReplicaLog()
        for tag in (b"a", b"b", b"c"):
            log.append(request_entry(tag))
        log.mark_committed_up_to(2)
        log.mark_executed(0, b"", None)
        log.release_below(3)
        assert log.low_water == 1  # exec cursor
        log.release_below(0)
        assert log.low_water == 1  # never moves back

    def test_rewrites_below_low_water_raise(self):
        log = self.executed_log(6, committed=4)
        log.release_below(3)
        for rewrite in (log.truncate, log.rollback_to):
            with pytest.raises(ValueError):
                rewrite(2)
        with pytest.raises(ValueError):
            log.overwrite_with_noop(1, evidence=None, view=0)
        assert len(log) == 6 and log.exec_cursor == 6
        # At and above the mark, rollback and truncation still work.
        log.truncate(5)
        assert len(log) == 5 and log.exec_cursor == 5


class TestBatcher:
    def test_flushes_immediately_when_idle(self):
        flushed = []
        batcher = Batcher(flushed.append, max_batch=10, max_outstanding=1)
        batcher.add("a")
        assert flushed == [["a"]]

    def test_accumulates_while_outstanding(self):
        flushed = []
        batcher = Batcher(flushed.append, max_batch=10, max_outstanding=1)
        batcher.add("a")
        batcher.add("b")
        batcher.add("c")
        assert flushed == [["a"]]
        batcher.batch_done()
        assert flushed == [["a"], ["b", "c"]]

    def test_max_batch_respected(self):
        flushed = []
        batcher = Batcher(flushed.append, max_batch=2, max_outstanding=1)
        batcher.add("a")
        for tag in "bcde":
            batcher.add(tag)
        batcher.batch_done()
        assert flushed[1] == ["b", "c"]

    def test_batch_done_without_outstanding(self):
        batcher = Batcher(lambda b: None)
        with pytest.raises(RuntimeError):
            batcher.batch_done()

    def test_mean_batch_size(self):
        flushed = []
        batcher = Batcher(flushed.append, max_batch=10, max_outstanding=1)
        batcher.add("a")
        batcher.add("b")
        batcher.add("c")
        batcher.batch_done()
        assert batcher.mean_batch_size() == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Batcher(lambda b: None, max_batch=0)
        with pytest.raises(ValueError):
            Batcher(lambda b: None, max_outstanding=0)


class TestTimedBatcher:
    def make_host(self):
        from repro.sim import Simulator
        from repro.sim.actors import Actor

        sim = Simulator()
        return sim, Actor(sim, "host")

    def test_flushes_on_count(self):
        sim, host = self.make_host()
        flushed = []
        batcher = TimedBatcher(host, flushed.append, max_batch=3, flush_after_ns=10**6)
        for tag in "abc":
            batcher.add(tag)
        assert flushed == [["a", "b", "c"]]

    def test_flushes_on_deadline(self):
        sim, host = self.make_host()
        flushed = []
        batcher = TimedBatcher(host, flushed.append, max_batch=100, flush_after_ns=5_000)
        host.execute_now(lambda: batcher.add("solo"))
        sim.run()
        assert flushed == [["solo"]]
        assert sim.now >= 5_000

    def test_flush_now_cancels_timer(self):
        sim, host = self.make_host()
        flushed = []
        batcher = TimedBatcher(host, flushed.append, max_batch=100, flush_after_ns=5_000)
        host.execute_now(lambda: batcher.add("x"))
        batcher.flush_now()
        sim.run()
        assert flushed == [["x"]]


class TestClientMessageAuth:
    """Clients MAC a request for every replica; each replica checks its entry."""

    def setup_method(self):
        self.authority = KeyAuthority(b"test")

    def context(self, node_id):
        return CryptoContext(node_id, self.authority, CostModel())

    def authenticate(self, request, replicas):
        vector = self.context(request.client_id).mac_vector(replicas, request.canonical())
        return ClientRequest(request.client_id, request.request_id, request.op, vector)

    def verify(self, replica, request):
        return self.context(replica).verify_vector_from(
            request.client_id, request.canonical(), request.auth
        )

    def test_request_roundtrip(self):
        authed = self.authenticate(ClientRequest(100, 1, b"op"), [0, 1, 2, 3])
        for replica in range(4):
            assert self.verify(replica, authed)

    def test_tampered_op_rejected(self):
        authed = self.authenticate(ClientRequest(100, 1, b"op"), [0, 1])
        tampered = ClientRequest(100, 1, b"oq", authed.auth)
        assert not self.verify(0, tampered)

    def test_unauthenticated_rejected(self):
        assert not self.verify(0, ClientRequest(100, 1, b"op"))

    def test_uncovered_replica_rejected(self):
        authed = self.authenticate(ClientRequest(100, 1, b"op"), [0, 1])
        assert not self.verify(3, authed)

    def test_reply_match_key_fields(self):
        a = ClientReply(view=1, replica=0, request_id=5, result=b"r", slot=9, log_hash=b"h")
        b = ClientReply(view=1, replica=3, request_id=5, result=b"r", slot=9, log_hash=b"h")
        c = ClientReply(view=1, replica=3, request_id=5, result=b"r", slot=9, log_hash=b"X")
        assert a.match_key() == b.match_key()
        assert a.match_key() != c.match_key()

    def test_request_key_identity(self):
        assert ClientRequest(1, 2, b"x").key() == (1, 2)
