"""The HotStuff replica: three threshold-signed vote rounds per batch."""

from __future__ import annotations

from typing import Dict, List

from repro.protocols.base import BaseReplica, ReplicaGroup
from repro.protocols.batching import Batcher
from repro.protocols.hotstuff.messages import (
    Decide,
    Phase,
    Proposal,
    QuorumCert,
    Vote,
    qc_body,
)
from repro.protocols.messages import ClientRequest, batch_digest

#: Batches the leader may have proposed but not yet decided.
PIPELINE_DEPTH = 1


class _BatchState:
    __slots__ = ("batch", "digest", "votes", "qcs", "decided")

    def __init__(self):
        self.batch = None
        self.digest = b""
        self.votes: Dict[int, Dict[int, Vote]] = {p: {} for p in Phase}
        self.qcs: Dict[int, QuorumCert] = {}
        self.decided = False


class HotStuffReplica(BaseReplica):
    """One HotStuff replica (stable leader = replica 0)."""

    PROTO = "hotstuff"

    def __init__(
        self,
        sim,
        replica_id: int,
        group: ReplicaGroup,
        app,
        batch_size: int = 150,
        **kwargs,
    ):
        super().__init__(sim, replica_id, group, app, **kwargs)
        self.batcher: Batcher[ClientRequest] = Batcher(
            self._propose, max_batch=batch_size, max_outstanding=PIPELINE_DEPTH
        )
        self.next_seq = 0
        self.states: Dict[int, _BatchState] = {}

    def _state(self, seq: int) -> _BatchState:
        state = self.states.get(seq)
        if state is None:
            state = _BatchState()
            self.states[seq] = state
        return state

    # ------------------------------------------------------------ dispatch

    def on_message(self, src: int, message: object) -> None:
        if isinstance(message, ClientRequest):
            self.on_client_request(message)
        elif isinstance(message, Proposal):
            self._on_proposal(src, message)
        elif isinstance(message, Vote):
            self._on_vote(src, message)
        elif isinstance(message, Decide):
            self._on_decide(src, message)

    # ------------------------------------------------------------- phases

    def _propose(self, batch: List[ClientRequest]) -> None:
        seq = self.next_seq
        self.next_seq += 1
        digest = batch_digest(tuple(batch))
        self.charge(self.cost.sha256_ns * (len(batch) + 1))
        state = self._state(seq)
        state.batch = tuple(batch)
        state.digest = digest
        proposal = Proposal(self.view, seq, Phase.PREPARE, digest, tuple(batch))
        self.broadcast(proposal)
        self._cast_vote(seq, Phase.PREPARE, digest)

    def _on_proposal(self, src: int, proposal: Proposal) -> None:
        if proposal.view != self.view or src != self.leader_addr:
            return
        state = self._state(proposal.seq)
        if proposal.phase == Phase.PREPARE:
            if state.batch is not None:
                return
            self.charge(self.cost.sha256_ns * (len(proposal.batch) + 1))
            if batch_digest(proposal.batch) != proposal.digest:
                return
            for request in proposal.batch:
                if not self.check_request_auth(request):
                    return
            state.batch = proposal.batch
            state.digest = proposal.digest
            self._cast_vote(proposal.seq, Phase.PREPARE, proposal.digest)
            return
        # PRE_COMMIT / COMMIT carry the previous phase's QC.
        justify = proposal.justify
        if justify is None or justify.seq != proposal.seq:
            return
        if not self._qc_valid(justify):
            return
        state.qcs[justify.phase] = justify
        self._cast_vote(proposal.seq, proposal.phase, proposal.digest)

    def _cast_vote(self, seq: int, phase: int, digest: bytes) -> None:
        body = qc_body(self.view, seq, phase, digest)
        share = self.crypto.threshold_share(body)
        vote = Vote(self.view, seq, phase, digest, self.address, share)
        if self.is_leader:
            self._record_vote(vote)
        else:
            self.send(self.leader_addr, vote)

    def _on_vote(self, src: int, vote: Vote) -> None:
        if not self.is_leader or vote.view != self.view or vote.replica != src:
            return
        body = qc_body(vote.view, vote.seq, vote.phase, vote.digest)
        if not self.crypto.verify_threshold_share(vote.replica, body, vote.share):
            return
        self._record_vote(vote)

    def _record_vote(self, vote: Vote) -> None:
        state = self._state(vote.seq)
        votes = state.votes[vote.phase]
        if vote.replica in votes or vote.phase in state.qcs:
            return
        votes[vote.replica] = vote
        # A QC must combine shares over ONE digest: counting a forked
        # proposal's votes toward another digest's quorum would certify
        # a batch 2f+1 replicas never voted for.
        matching = sum(1 for v in votes.values() if v.digest == vote.digest)
        if matching < self.group.quorum:
            return
        body = qc_body(vote.view, vote.seq, vote.phase, vote.digest)
        combined = self.crypto.combine_threshold(body)
        qc = QuorumCert(vote.view, vote.seq, vote.phase, vote.digest, combined)
        state.qcs[vote.phase] = qc
        if vote.phase == Phase.PREPARE:
            self.broadcast(Proposal(self.view, vote.seq, Phase.PRE_COMMIT, vote.digest, (), qc))
            self._cast_vote(vote.seq, Phase.PRE_COMMIT, vote.digest)
        elif vote.phase == Phase.PRE_COMMIT:
            self.broadcast(Proposal(self.view, vote.seq, Phase.COMMIT, vote.digest, (), qc))
            self._cast_vote(vote.seq, Phase.COMMIT, vote.digest)
        else:
            self.broadcast(Decide(self.view, vote.seq, vote.digest, qc))
            self._mark_decided(vote.seq)
            if self.batcher.outstanding > 0:
                self.batcher.batch_done()

    def _qc_valid(self, qc: QuorumCert) -> bool:
        """Whether ``qc`` carries the combined signature of its view's leader."""
        return self.crypto.verify_threshold_combined(
            self.group.leader_addr(qc.view), qc.body(), qc.combined
        )

    def _on_decide(self, src: int, decide: Decide) -> None:
        if decide.view != self.view or src != self.leader_addr:
            return
        justify = decide.justify
        if justify.phase != Phase.COMMIT or justify.seq != decide.seq:
            return
        if not self._qc_valid(justify):
            return
        state = self._state(decide.seq)
        state.qcs[Phase.COMMIT] = justify
        self._mark_decided(decide.seq)

    # ------------------------------------------------------------ execution

    def _mark_decided(self, seq: int) -> None:
        state = self._state(seq)
        if state.decided:
            return
        state.decided = True
        while True:
            seq = len(self.log)
            current = self.states.get(seq)
            if current is None or not current.decided:
                return
            if current.batch is None:
                return  # decide arrived before the batch itself
            if current.qcs[Phase.COMMIT].digest != current.digest:
                # The commit QC certifies another batch than the one we
                # voted for (an equivocating leader forked the PREPARE):
                # ours never reached a quorum, so it must not execute.
                return
            self.commit_batch(current.digest, current.batch)
            del self.states[seq]
