"""The PBFT replica: three-phase agreement with batching and checkpoints."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.protocols.base import BaseReplica, ReplicaGroup
from repro.protocols.batching import Batcher
from repro.protocols.messages import ClientRequest, batch_digest
from repro.protocols.pbft.messages import (
    Checkpoint,
    Commit,
    PbftNewView,
    PbftViewChange,
    PrePrepare,
    Prepare,
    PreparedProof,
    checkpoint_body,
    commit_body,
    pre_prepare_body,
    prepare_body,
)
from repro.sim.clock import ms

#: A backup starts a view change when a request it forwarded to the
#: primary has not executed within this long.
REQUEST_TIMEOUT_NS = ms(4)


class _SlotState:
    """Per-sequence-number agreement state."""

    __slots__ = ("pre_prepare", "prepares", "commits", "prepared",
                 "committed", "executed", "sent_commit")

    def __init__(self):
        self.pre_prepare: Optional[PrePrepare] = None
        self.prepares: Dict[int, Prepare] = {}
        self.commits: Dict[int, Commit] = {}
        self.prepared = False
        self.committed = False
        self.executed = False
        self.sent_commit = False


class PbftReplica(BaseReplica):
    """One PBFT replica (primary when ``view % n == replica_id``)."""

    PROTO = "pbft"

    def __init__(
        self,
        sim,
        replica_id: int,
        group: ReplicaGroup,
        app,
        batch_size: int = 64,
        checkpoint_interval: int = 128,
        **kwargs,
    ):
        super().__init__(sim, replica_id, group, app, **kwargs)
        self.batcher: Batcher[ClientRequest] = Batcher(
            self._send_pre_prepare, max_batch=batch_size, max_outstanding=2
        )
        self.checkpoint_interval = checkpoint_interval
        self.next_seq = 0  # primary's sequence counter
        self.slots: Dict[int, _SlotState] = {}
        self.last_stable = -1
        self._checkpoints: Dict[int, Dict[int, Checkpoint]] = {}
        self.in_view_change = False
        self._vc_messages: Dict[int, Dict[int, PbftViewChange]] = {}
        self._vc_target: Optional[int] = None
        self._request_timers: Dict[Tuple[int, int], object] = {}

    # ------------------------------------------------------------ plumbing

    def _slot(self, seq: int) -> _SlotState:
        state = self.slots.get(seq)
        if state is None:
            state = _SlotState()
            self.slots[seq] = state
        return state

    def _verify_mac(self, src: int, message) -> bool:
        return self.crypto.verify_vector_from(src, message.signed_body(), message.auth)

    # ------------------------------------------------------------ dispatch

    def on_message(self, src: int, message: object) -> None:
        if isinstance(message, ClientRequest):
            self.on_client_request(message)
        elif self.in_view_change and not isinstance(
            message, (PbftViewChange, PbftNewView)
        ):
            return
        elif isinstance(message, PrePrepare):
            self._on_pre_prepare(src, message)
        elif isinstance(message, Prepare):
            self._on_prepare(src, message)
        elif isinstance(message, Commit):
            self._on_commit(src, message)
        elif isinstance(message, Checkpoint):
            self._on_checkpoint(src, message)
        elif isinstance(message, PbftViewChange):
            self._on_view_change(src, message)
        elif isinstance(message, PbftNewView):
            self._on_new_view(src, message)

    # ------------------------------------------------------- client requests

    def forward_request(self, request: ClientRequest) -> None:
        # Forward to the primary and start the view-change timer.
        super().forward_request(request)
        self._arm_request_timer(request)

    def _arm_request_timer(self, request: ClientRequest) -> None:
        key = request.key()
        if key in self._request_timers:
            return

        def fire() -> None:
            self._request_timers.pop(key, None)
            seen = self.client_table.get(request.client_id)
            executed = seen is not None and seen[0] >= request.request_id
            if not executed and not self.in_view_change:
                self.metrics.add("primary_suspicions")
                self._initiate_view_change(self.view + 1)

        self._request_timers[key] = (
            self.set_timer(REQUEST_TIMEOUT_NS, fire),
            request,
        )

    def _clear_request_timer(self, request: ClientRequest) -> None:
        entry = self._request_timers.pop(request.key(), None)
        if entry is not None:
            entry[0].cancel()

    # --------------------------------------------------------- normal case

    def _send_pre_prepare(self, batch: List[ClientRequest]) -> None:
        seq = self.next_seq
        self.next_seq += 1
        batch = tuple(batch)
        digest = batch_digest(batch)
        self.charge(self.cost.sha256_ns * (len(batch) + 1))
        self._slot(seq).pre_prepare = self.mac_broadcast(
            PrePrepare, pre_prepare_body(self.view, seq, digest), self.view, seq, digest, batch
        )
        # The primary does not send (or count) a prepare of its own; the
        # pre-prepare plays that role. Check in case 2f prepares raced in.
        self._check_prepared(seq)

    def _on_pre_prepare(self, src: int, message: PrePrepare) -> None:
        if message.view != self.view or src != self.leader_addr:
            return
        if not self._verify_mac(src, message):
            return
        state = self._slot(message.seq)
        if state.pre_prepare is not None:
            return
        self.charge(self.cost.sha256_ns * (len(message.batch) + 1))
        if batch_digest(message.batch) != message.digest:
            return
        # Authenticate every batched client request.
        for request in message.batch:
            if not self.check_request_auth(request):
                return
            self._clear_request_timer(request)
        state.pre_prepare = message
        fields = (self.view, message.seq, message.digest, self.address)
        prepare = self.mac_broadcast(Prepare, prepare_body(*fields), *fields)
        self._add_prepare_vote(message.seq, prepare)

    def _on_prepare(self, src: int, message: Prepare) -> None:
        if message.view != self.view or message.replica != src:
            return
        if not self._verify_mac(src, message):
            return
        self._add_prepare_vote(message.seq, message)

    def _add_prepare_vote(self, seq: int, prepare: Prepare) -> None:
        if prepare.replica == self.group.leader_addr(self.view):
            return  # the primary's pre-prepare stands in for its prepare
        state = self._slot(seq)
        if (
            state.pre_prepare is not None
            and prepare.digest != state.pre_prepare.digest
        ):
            self.metrics.add("digest_mismatch_votes")
        state.prepares[prepare.replica] = prepare
        self._check_prepared(seq)

    def _check_prepared(self, seq: int) -> None:
        # prepared == pre-prepare + 2f *digest-matching* prepares from
        # non-primary replicas (our own counts when we are a backup).
        # Counting mismatched prepares would let an equivocating primary
        # split-brain the slot: half the quorum preparing one batch, half
        # another, both "prepared". Mismatches stall the slot instead,
        # and the request timers view-change away from the primary.
        state = self._slot(seq)
        if state.prepared or state.pre_prepare is None:
            return
        digest = state.pre_prepare.digest
        matching = sum(1 for p in state.prepares.values() if p.digest == digest)
        if matching >= 2 * self.group.f:
            state.prepared = True
            state.sent_commit = True
            fields = (self.view, seq, digest, self.address)
            commit = self.mac_broadcast(Commit, commit_body(*fields), *fields)
            self._add_commit_vote(seq, commit)

    def _on_commit(self, src: int, message: Commit) -> None:
        if message.view != self.view or message.replica != src:
            return
        if not self._verify_mac(src, message):
            return
        self._add_commit_vote(message.seq, message)

    def _add_commit_vote(self, seq: int, commit: Commit) -> None:
        state = self._slot(seq)
        if (
            state.pre_prepare is not None
            and commit.digest != state.pre_prepare.digest
        ):
            self.metrics.add("digest_mismatch_votes")
        state.commits[commit.replica] = commit
        if state.committed or state.pre_prepare is None:
            return
        digest = state.pre_prepare.digest
        matching = sum(1 for c in state.commits.values() if c.digest == digest)
        if matching >= self.group.quorum:
            state.committed = True
            self._execute_ready()

    def _execute_ready(self) -> None:
        while True:
            state = self.slots.get(len(self.log))
            if state is None or not state.committed or state.executed:
                return
            state.executed = True
            pre_prepare = state.pre_prepare
            seq = self.commit_batch(pre_prepare.digest, pre_prepare.batch)
            if self.is_leader and self.batcher.outstanding > 0:
                self.batcher.batch_done()
            if (seq + 1) % self.checkpoint_interval == 0:
                self._send_checkpoint(seq)

    def execute_request(self, request: ClientRequest, **reply_fields) -> bool:
        executed = super().execute_request(request, **reply_fields)
        if executed:
            self._clear_request_timer(request)
        return executed

    # ---------------------------------------------------------- checkpoints

    def _send_checkpoint(self, seq: int) -> None:
        digest = self.app.digest()
        self.charge(self.cost.sha256_ns)
        fields = (seq, digest, self.address)
        checkpoint = self.mac_broadcast(Checkpoint, checkpoint_body(*fields), *fields)
        self._add_checkpoint_vote(checkpoint)

    def _on_checkpoint(self, src: int, message: Checkpoint) -> None:
        if message.replica != src or not self._verify_mac(src, message):
            return
        self._add_checkpoint_vote(message)

    def _add_checkpoint_vote(self, checkpoint: Checkpoint) -> None:
        votes = self._checkpoints.setdefault(checkpoint.seq, {})
        votes[checkpoint.replica] = checkpoint
        if len(votes) >= self.group.quorum and checkpoint.seq > self.last_stable:
            self.last_stable = checkpoint.seq
            self.metrics.add("stable_checkpoints")
            # A log slot is its seq; nothing reads one at or below a
            # stable checkpoint.
            self.log.release_below(self.last_stable + 1)
            for seq in [s for s in self.slots if s <= checkpoint.seq]:
                if self.slots[seq].executed:
                    del self.slots[seq]
            for seq in [s for s in self._checkpoints if s < checkpoint.seq]:
                del self._checkpoints[seq]

    # ---------------------------------------------------------- view change

    def _prepared_proofs(self) -> Tuple[PreparedProof, ...]:
        proofs = []
        for seq, state in sorted(self.slots.items()):
            if state.prepared and state.pre_prepare is not None and seq > self.last_stable:
                proofs.append(
                    PreparedProof(
                        seq=seq,
                        view=state.pre_prepare.view,
                        digest=state.pre_prepare.digest,
                        batch=state.pre_prepare.batch,
                    )
                )
        return tuple(proofs)

    def _initiate_view_change(self, new_view: int) -> None:
        if self._vc_target is not None and self._vc_target >= new_view:
            return
        self.metrics.add("view_changes_started")
        self.in_view_change = True
        self._vc_target = new_view
        vc = self.signed(PbftViewChange(
            new_view=new_view,
            last_stable=self.last_stable,
            prepared=self._prepared_proofs(),
            replica=self.address,
        ))
        self._vc_messages.setdefault(new_view, {})[self.address] = vc
        self.broadcast(vc)
        self._try_new_view(new_view)

    def _on_view_change(self, src: int, vc: PbftViewChange) -> None:
        if vc.replica != src or vc.new_view <= self.view:
            return
        if not self.crypto.verify(vc.replica, vc.signed_body(), vc.signature):
            return
        bucket = self._vc_messages.setdefault(vc.new_view, {})
        bucket[vc.replica] = vc
        # Join once f+1 distinct replicas are ahead of us.
        voters = set()
        for view, msgs in self._vc_messages.items():
            if view > self.view:
                voters.update(msgs)
        if len(voters) > self.group.f and (
            self._vc_target is None or vc.new_view > self._vc_target
        ):
            self._initiate_view_change(vc.new_view)
        self._try_new_view(vc.new_view)

    def _try_new_view(self, new_view: int) -> None:
        if self.group.leader_index(new_view) != self.replica_id:
            return
        bucket = self._vc_messages.get(new_view, {})
        if self.address not in bucket or len(bucket) < self.group.quorum:
            return
        if self.view >= new_view:
            return
        chosen = tuple(sorted(bucket.values(), key=lambda m: m.replica))[: self.group.quorum]
        # O: re-issue pre-prepares for every prepared batch above the
        # highest stable checkpoint, highest view wins per seq.
        winners: Dict[int, PreparedProof] = {}
        for vc in chosen:
            for proof in vc.prepared:
                current = winners.get(proof.seq)
                if current is None or proof.view > current.view:
                    winners[proof.seq] = proof
        # Null-fill the gaps: a seq the old primary consumed without any
        # quorum member preparing it (lost or garbled pre-prepare) would
        # otherwise stall execution below the re-issued slots forever.
        # Fill only above the *highest* stable checkpoint among the chosen
        # view changes: a slot at or below it may have executed (with a
        # real batch) at the replicas that certified it, while proofs stop
        # at each sender's own checkpoint. Above it, a slot that executed
        # anywhere prepared at 2f+1 replicas, so it is in some chosen
        # proof — nulls only land on seqs no correct replica executed. A
        # replica behind that checkpoint stalls until it gets the state.
        floor = max((vc.last_stable for vc in chosen), default=self.last_stable)
        null_digest = batch_digest(())
        for seq in range(floor + 1, max(winners, default=floor)):
            if seq not in winners:
                winners[seq] = PreparedProof(
                    seq=seq, view=new_view, digest=null_digest, batch=()
                )
        pre_prepares = tuple(
            PrePrepare(new_view, proof.seq, proof.digest, proof.batch)
            for seq, proof in sorted(winners.items())
        )
        new_view_msg = self.signed(PbftNewView(new_view, chosen, pre_prepares))
        self.broadcast(new_view_msg)
        self._adopt_new_view(new_view_msg)

    def _on_new_view(self, src: int, message: PbftNewView) -> None:
        if message.new_view <= self.view:
            return
        leader = self.group.leader_addr(message.new_view)
        if src != leader:
            return
        if not self.crypto.verify(leader, message.signed_body(), message.signature):
            return
        if not self.certified(
            message.view_changes, lambda vc: vc.new_view == message.new_view
        ):
            return
        self._adopt_new_view(message)

    def _adopt_new_view(self, message: PbftNewView) -> None:
        self.view = message.new_view
        self.in_view_change = False
        self._vc_target = None
        self.metrics.add("views_entered")
        pending = [request for _, request in self._request_timers.values()]
        for timer, _ in self._request_timers.values():
            timer.cancel()
        self._request_timers.clear()
        # Drop unexecuted slot state from the old view: a stale
        # pre-prepare parked at a seq would block the new primary's
        # (different) assignment for that seq indefinitely.
        for seq in [s for s, state in self.slots.items() if not state.executed]:
            del self.slots[seq]
        # Re-run agreement for carried-over batches in the new view.
        max_seq = self.last_stable
        for pre_prepare in message.pre_prepares:
            state = self._slot(pre_prepare.seq)
            if state.executed:
                continue
            self.slots[pre_prepare.seq] = _SlotState()
            state = self.slots[pre_prepare.seq]
            state.pre_prepare = pre_prepare
            fields = (self.view, pre_prepare.seq, pre_prepare.digest, self.address)
            prepare = self.mac_broadcast(Prepare, prepare_body(*fields), *fields)
            self._add_prepare_vote(pre_prepare.seq, prepare)
            max_seq = max(max_seq, pre_prepare.seq)
        if self.is_leader:
            self.next_seq = max(self.next_seq, max_seq + 1)
            self.batcher = Batcher(
                self._send_pre_prepare,
                max_batch=self.batcher.max_batch,
                max_outstanding=self.batcher.max_outstanding,
            )
        # Re-route requests that were waiting on the dead primary: the
        # clients' copies went to the old view, and their retry backoff
        # can stretch well past the view change. Unexecuted ones go to
        # the new primary now (or straight into our batch, if that's us).
        for request in pending:
            seen = self.client_table.get(request.client_id)
            if seen is not None and seen[0] >= request.request_id:
                continue  # executed while the timer was pending
            self.route_request(request)
