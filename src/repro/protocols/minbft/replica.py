"""The MinBFT replica: prepare/commit with USIG counters, 2f+1 replicas."""

from __future__ import annotations

import bisect
from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple

from repro.crypto.digests import fields_digest
from repro.protocols import adversary
from repro.protocols.base import BaseReplica, ReplicaGroup
from repro.protocols.batching import Batcher
from repro.protocols.messages import ClientRequest, batch_digest
from repro.protocols.minbft.usig import Usig, UsigCertificate
from repro.records import record


@record(frozen=True)
class MinBftPrepare:
    """<PREPARE, v, batch, UI_p> from the primary."""

    view: int
    digest: bytes
    batch: Tuple[ClientRequest, ...]
    ui: UsigCertificate

    def wire_size(self) -> int:
        return 44 + sum(r.wire_size() for r in self.batch) + self.ui.wire_size()


@record(frozen=True)
class MinBftCommit:
    """<COMMIT, v, replica, UI_p, UI_i> broadcast by every replica."""

    view: int
    replica: int
    digest: bytes
    primary_ui: UsigCertificate
    ui: UsigCertificate

    def wire_size(self) -> int:
        return 48 + self.primary_ui.wire_size() + self.ui.wire_size()


def commit_ui_body(digest: bytes, primary_counter: int) -> bytes:
    """What a commit's own UI binds: the batch digest and the primary's counter."""
    return fields_digest(b"commit", digest, primary_counter)


class _PrepareState:
    __slots__ = ("prepare", "commits")

    def __init__(self):
        self.prepare: Optional[MinBftPrepare] = None
        self.commits: Dict[int, MinBftCommit] = {}


class MinBftReplica(BaseReplica):
    """One MinBFT replica (n = 2f+1).

    Log slot ``i`` is the ``i``-th executed prepare: the primary's USIG
    counters also advance on its own commits, so they cannot be slots.
    """

    PROTO = "minbft"

    def __init__(
        self,
        sim,
        replica_id: int,
        group: ReplicaGroup,
        app,
        batch_size: int = 10,
        **kwargs,
    ):
        super().__init__(sim, replica_id, group, app, **kwargs)
        self.usig: Optional[Usig] = None  # needs the bound crypto context
        self.batcher: Batcher[ClientRequest] = Batcher(
            self._send_prepare, max_batch=batch_size, max_outstanding=2
        )
        # Prepares keyed by the primary's USIG counter value; executed
        # strictly in counter order (the USIG guarantees no gaps).
        self.states: Dict[int, _PrepareState] = {}
        # Primary USIG counters of accepted, unexecuted prepares, sorted;
        # the primary's counter also advances on its own commits, so
        # prepare counters are increasing but not contiguous.
        self._order: List[int] = []
        # Every primary counter below ``_primary_seen`` arrived, as a
        # prepare or as the primary's commit; ``_seen_above`` holds the
        # ones that arrived above that frontier.
        self._primary_seen = 1
        self._seen_above: Set[int] = set()
        self._last_executed = 0  # primary counter of the last executed prepare

    def init_usig(self) -> None:
        """Create the trusted component (after crypto binding)."""
        self.usig = Usig(self.replica_id, self.crypto.authority, self.crypto)

    def _state(self, counter: int) -> _PrepareState:
        state = self.states.get(counter)
        if state is None:
            state = _PrepareState()
            self.states[counter] = state
        return state

    # ------------------------------------------------------------ dispatch

    def on_message(self, src: int, message: object) -> None:
        if isinstance(message, ClientRequest):
            self.on_client_request(message)
        elif isinstance(message, MinBftPrepare):
            self._on_prepare(src, message)
        elif isinstance(message, MinBftCommit):
            self._on_commit(src, message)

    # -------------------------------------------------------------- phases

    def _send_prepare(self, batch: List[ClientRequest]) -> None:
        digest = batch_digest(tuple(batch))
        self.charge(self.cost.sha256_ns * (len(batch) + 1))
        ui = self.usig.create_ui(digest)
        prepare = MinBftPrepare(self.view, digest, tuple(batch), ui)
        self.broadcast(prepare)
        self._accept_prepare(prepare)

    def _on_prepare(self, src: int, prepare: MinBftPrepare) -> None:
        if prepare.view != self.view or src != self.leader_addr:
            return
        self.charge(self.cost.sha256_ns * (len(prepare.batch) + 1))
        if batch_digest(prepare.batch) != prepare.digest:
            return
        if not self.usig.verify_ui(prepare.ui, prepare.digest):
            return
        for request in prepare.batch:
            if not self.check_request_auth(request):
                return
        self._accept_prepare(prepare)

    def _accept_prepare(self, prepare: MinBftPrepare) -> None:
        counter = prepare.ui.counter
        if counter <= self._last_executed:
            return  # a late duplicate of an executed prepare
        state = self._state(counter)
        if state.prepare is not None:
            return
        state.prepare = prepare
        bisect.insort(self._order, counter)
        self._see_primary_counter(counter)
        my_ui = self.usig.create_ui(commit_ui_body(prepare.digest, prepare.ui.counter))
        commit = MinBftCommit(self.view, self.address, prepare.digest, prepare.ui, my_ui)
        self.broadcast(commit)
        self._record_commit(commit)
        self._try_execute()

    def _on_commit(self, src: int, commit: MinBftCommit) -> None:
        if commit.view != self.view or commit.replica != src:
            return
        if not self.usig.verify_ui(
            commit.ui, commit_ui_body(commit.digest, commit.primary_ui.counter)
        ):
            return
        self._record_commit(commit)
        self._try_execute()

    def _record_commit(self, commit: MinBftCommit) -> None:
        if commit.replica == self.leader_addr:
            self._see_primary_counter(commit.ui.counter)
        if commit.primary_ui.counter <= self._last_executed:
            return  # late vote for an executed prepare
        state = self._state(commit.primary_ui.counter)
        state.commits[commit.replica] = commit

    def _see_primary_counter(self, counter: int) -> None:
        self._seen_above.add(counter)
        while self._primary_seen in self._seen_above:
            self._seen_above.remove(self._primary_seen)
            self._primary_seen += 1

    def _try_execute(self) -> None:
        while self._order:
            head = self._order[0]
            if head >= self._primary_seen:
                return  # a lower counter from the primary is still missing
            state = self.states[head]
            # Only digest-matching commits certify the prepare: a
            # Byzantine replica can mint a valid USIG UI over any digest
            # it likes, and counting such commits would execute on a
            # quorum that never agreed on this batch.
            matching = sum(
                1
                for c in state.commits.values()
                if c.digest == state.prepare.digest
            )
            if matching < self.group.f + 1:
                return
            del self.states[head]
            self._order.pop(0)
            self._last_executed = head
            self.commit_batch(state.prepare.digest, state.prepare.batch)
            if self.is_leader and self.batcher.outstanding > 0:
                self.batcher.batch_done()


# ---------------------------------------------------------------------------
# Adversary hooks. The USIG makes true equivocation impossible (the counter
# binds one digest per UI), so the strongest primary attack is a
# corrupt-digest prepare (stale UI over a different batch), which
# receivers must reject; a withholder suppresses commits.
# ---------------------------------------------------------------------------


def _fork_prepare(replica, dst: int, message: MinBftPrepare) -> Optional[MinBftPrepare]:
    forged_batch = adversary.conflicting_batch(message.batch)
    if forged_batch is None:
        return None
    return replace(message, digest=batch_digest(forged_batch), batch=forged_batch)


adversary.register_proposal_mutator(MinBftPrepare, _fork_prepare)
adversary.register_vote_types(MinBftCommit)
