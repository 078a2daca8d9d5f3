"""The NeoBFT replica (§5.3-§5.5, Appendix B).

Structure of this module:

- **normal operation**: aom delivers ordering certificates in order; the
  replica appends, speculatively executes, and replies — no coordination;
- **drop handling**: drop-notifications enter the same in-order delivery
  queue; the replica blocks at the gap and runs query-to-leader or the
  leader-driven binary gap agreement;
- **state sync**: every ``sync_interval`` slots replicas exchange sync
  messages; 2f matching ones advance the committed prefix (the rollback
  bound, and the suffix origin for view changes);
- **view changes**: leader replacement (same epoch) and epoch replacement
  (sequencer failover), with the B.1 log merge over 2f+1 view-change
  messages and epoch certificates for cross-epoch consistency.

Authentication: ordering certificates are self-verifying (aom's
transferable authentication); gap/epoch/view evidence uses real
signatures because third parties must verify it; client traffic and sync
messages use MAC vectors (the standard normal-case optimization — sync
evidence that must transfer, i.e. gap certificates, is already signed).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Dict, Optional, Tuple

from repro.aom.messages import (
    AomPacket,
    Confirm,
    ConfirmBatch,
    DropNotification,
    EpochConfig,
    FailoverRequest,
    OrderingCertificate,
)
from repro.protocols.base import BaseReplica, ReplicaGroup
from repro.protocols.log import EntryKind, LogEntry, NOOP_DIGEST
from repro.protocols.messages import ClientRequest
from repro.protocols.neobft.messages import (
    EpochCertificate,
    EpochStart,
    GapCommit,
    GapDecision,
    GapDrop,
    GapFind,
    GapPrepare,
    GapRecv,
    LogEntrySummary,
    Query,
    QueryReply,
    StateTransferReply,
    StateTransferRequest,
    SyncMessage,
    ViewChange,
    ViewId,
    ViewStart,
)
from repro.sim.clock import ms, us

#: How long a replica waits for query or gap-find replies before it
#: re-broadcasts the request.
QUERY_RESEND_NS = us(300)


class _GapState:
    """Per-slot gap agreement bookkeeping."""

    __slots__ = (
        "decision",
        "prepares",
        "commits",
        "sent_prepare",
        "sent_commit",
        "awaiting_decision",
        "drop_votes",
        "resolved",
        "find_timer",
    )

    def __init__(self, quorum: int):
        self.decision: Optional[GapDecision] = None
        self.prepares: Dict[bool, Dict[int, GapPrepare]] = {True: {}, False: {}}
        self.commits: Dict[bool, Dict[int, GapCommit]] = {True: {}, False: {}}
        self.sent_prepare = False
        self.sent_commit = False
        self.awaiting_decision = False  # sent gap-drop: ignore query-replies
        self.drop_votes: Dict[int, GapDrop] = {}
        self.resolved = False
        self.find_timer = None


class NeoBftReplica(BaseReplica):
    """One NeoBFT replica."""

    PROTO = "neobft"

    def __init__(
        self,
        sim,
        replica_id: int,
        group: ReplicaGroup,
        app,
        sync_interval: int = 256,
        blocked_timeout_ns: int = ms(6),
        direct_request_timeout_ns: int = ms(10),
        view_change_timeout_ns: int = ms(8),
        **kwargs,
    ):
        super().__init__(sim, replica_id, group, app, **kwargs)
        # The aom group and its configuration service (set by the cluster
        # builder's aom wiring).
        self.group_id: Optional[int] = None
        self.config_service_addr: Optional[int] = None
        self.sync_interval = sync_interval
        self.blocked_timeout_ns = blocked_timeout_ns
        self.direct_request_timeout_ns = direct_request_timeout_ns
        self.view_change_timeout_ns = view_change_timeout_ns

        self.view_id = ViewId(1, 0)
        self.epoch_bases: Dict[int, int] = {1: 0}
        self.epoch_certs: Dict[int, EpochCertificate] = {}
        self.aom_lib = None  # installed by the cluster builder

        # In-order delivery processing.
        self._queue: Deque[Tuple[str, object]] = deque()
        self.blocked_slot: Optional[int] = None
        self._query_timer = None
        self._blocked_timer = None

        # Gap agreement.
        self._gaps: Dict[int, _GapState] = {}
        self._gap_certs: Dict[int, Tuple[GapCommit, ...]] = {}

        # State sync.
        self._last_sync_slot = 0
        self._sync_votes: Dict[int, Dict[int, SyncMessage]] = {}

        # View changes.
        self.in_view_change = False
        self._vc_messages: Dict[ViewId, Dict[int, ViewChange]] = {}
        self._vc_sent_for: Optional[ViewId] = None
        self._vc_timer = None
        self._epoch_start_votes: Dict[Tuple[int, int], Dict[int, EpochStart]] = {}
        self._pending_epoch_entry: Optional[Tuple[ViewId, int]] = None
        self._sent_view_start: Dict[ViewId, bool] = {}

        # Client unicast-retry suspicion (§5.3 / §5.5 trigger).
        self._direct_timers: Dict[Tuple[int, int], object] = {}
        # While a sequencer failover is pending, suppress further epoch
        # suspicions until the config service installs the awaited epoch
        # (or a generous grace period expires).
        self._epoch_wait: Optional[Tuple[int, int]] = None
        self.failover_grace_ns = ms(150)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def install_aom(self, lib) -> None:
        """Attach the libAOM receiver built by the cluster builder."""
        self.aom_lib = lib

    @property
    def is_leader(self) -> bool:  # type: ignore[override]
        return self.group.leader_index(self.view_id.leader_num) == self.replica_id

    @property
    def leader_addr(self) -> int:  # type: ignore[override]
        return self.group.leader_addr(self.view_id.leader_num)

    def _slot_for(self, epoch: int, sequence: int) -> Optional[int]:
        base = self.epoch_bases.get(epoch)
        if base is None:
            return None
        return base + sequence - 1

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def on_message(self, src: int, message: object) -> None:
        if isinstance(message, AomPacket):
            self.aom_lib.on_packet(message)
        elif isinstance(message, Confirm):
            self.aom_lib.on_confirm(message, src)
        elif isinstance(message, ConfirmBatch):
            self.aom_lib.on_confirm_batch(message, src)
        elif isinstance(message, EpochConfig):
            self._on_epoch_config(message)
        elif isinstance(message, ClientRequest):
            self._on_direct_request(message)
        elif isinstance(message, Query):
            self._on_query(src, message)
        elif isinstance(message, QueryReply):
            self._on_query_reply(message)
        elif isinstance(message, GapFind):
            self._on_gap_find(src, message)
        elif isinstance(message, GapRecv):
            self._on_gap_recv(src, message)
        elif isinstance(message, GapDrop):
            self._on_gap_drop(src, message)
        elif isinstance(message, GapDecision):
            self._on_gap_decision(src, message)
        elif isinstance(message, GapPrepare):
            self._on_gap_prepare(src, message)
        elif isinstance(message, GapCommit):
            self._on_gap_commit(src, message)
        elif isinstance(message, StateTransferRequest):
            self._on_state_transfer_request(src, message)
        elif isinstance(message, StateTransferReply):
            self._on_state_transfer_reply(src, message)
        elif isinstance(message, SyncMessage):
            self._on_sync(src, message)
        elif isinstance(message, ViewChange):
            self._on_view_change(src, message)
        elif isinstance(message, ViewStart):
            self._on_view_start(src, message)
        elif isinstance(message, EpochStart):
            self._on_epoch_start(src, message)

    # ------------------------------------------------------------------
    # aom delivery -> in-order processing queue
    # ------------------------------------------------------------------

    def on_aom_deliver(self, cert: OrderingCertificate) -> None:
        """libAOM delivery callback (ordering certificate)."""
        self._queue.append(("oc", cert))
        self._drain()

    def on_aom_drop(self, notification: DropNotification) -> None:
        """libAOM delivery callback (drop-notification)."""
        self._queue.append(("drop", notification))
        self._drain()

    def _drain(self) -> None:
        while self._queue and self.blocked_slot is None and not self.in_view_change:
            kind, item = self._queue.popleft()
            slot = self._slot_for(item.epoch, item.sequence)
            if slot is None:
                continue  # epoch we never started (stale)
            if slot < self.log.next_slot:
                continue  # already resolved by gap agreement / view change
            if slot > self.log.next_slot:
                # We are behind (e.g. a view-change merge could not cover
                # everything): catch up on the next missing slot through
                # the query path before touching this delivery.
                self._queue.appendleft((kind, item))
                self._begin_gap(self.log.next_slot)
                return
            if kind == "oc":
                self._append_request(item)
            else:
                self._begin_gap(slot)

    # ------------------------------------------------------------------
    # normal operation (§5.3)
    # ------------------------------------------------------------------

    def _append_request(self, cert: OrderingCertificate) -> None:
        request = cert.payload
        if not isinstance(request, ClientRequest):
            # Garbage multicast to our group: all correct replicas see the
            # same bytes and all skip it the same way — commit a no-op.
            self.log.append(
                LogEntry(kind=EntryKind.NOOP, digest=NOOP_DIGEST, evidence=cert,
                         view=self.view_id.leader_num, epoch=cert.epoch)
            )
            return
        entry = LogEntry(
            kind=EntryKind.REQUEST,
            digest=cert.digest,
            request=request,
            evidence=cert,
            view=self.view_id.leader_num,
            epoch=cert.epoch,
        )
        slot = self.log.append(entry)
        self._execute_ready()
        self._maybe_sync(slot)

    def _execute_ready(self) -> None:
        """Execute every appended-but-unexecuted entry, in order."""
        while True:
            slot = self.log.next_unexecuted()
            if slot is None:
                return
            entry = self.log.get(slot)
            if entry.kind == EntryKind.NOOP:
                self.log.mark_executed(slot, b"", None)
                continue
            self._execute_request_entry(slot, entry)

    def _execute_request_entry(self, slot: int, entry: LogEntry) -> None:
        request: ClientRequest = entry.request
        should_execute, cached = self.execution_dedupe(request)
        prev_table = self.client_table.get(request.client_id)
        if should_execute:
            if not self.check_request_auth(request):
                # The op still occupies the slot (ordering is fixed), but a
                # request this replica cannot authenticate gets no reply.
                self.log.mark_executed(slot, b"", None)
                return
            result, app_undo = self.execute_op(request.op, request=request)
            self.client_table[request.client_id] = (request.request_id, None)
            self.log.mark_executed(
                slot, result, partial(self._unexecute, app_undo, request.client_id, prev_table)
            )
            self._cancel_direct_timer(request)
            self.reply_to_client(
                request.client_id,
                _view_int(self.view_id),
                request.request_id,
                result,
                slot=slot,
                log_hash=self.log.hash_up_to(slot),
            )
        else:
            # Duplicate of an executed request: occupies the slot, no
            # state mutation; resend the cached reply if we still have it.
            self.log.mark_executed(slot, b"", None)
            self._cancel_direct_timer(request)
            if cached is not None:
                self.send(request.client_id, cached)

    def _unexecute(self, app_undo, client_id: int, prev) -> None:
        """One executed slot's undo record: the app's inverse, then the
        client-table entry the execution replaced (``None``: there was
        none)."""
        if app_undo is not None:
            app_undo()
        if prev is None:
            self.client_table.pop(client_id, None)
        else:
            self.client_table[client_id] = prev

    # ------------------------------------------------------------------
    # client unicast retry path (§5.3)
    # ------------------------------------------------------------------

    def _on_direct_request(self, request: ClientRequest) -> None:
        if not self.screen_request(request):
            return
        key = request.key()
        if key in self._direct_timers:
            return  # already suspicious about this one
        timer = self.set_timer(self.direct_request_timeout_ns, self._direct_timeout, key)
        self._direct_timers[key] = timer

    def _cancel_direct_timer(self, request: ClientRequest) -> None:
        timer = self._direct_timers.pop(request.key(), None)
        if timer is not None:
            timer.cancel()

    def _direct_timeout(self, key: Tuple[int, int], strikes: int = 0) -> None:
        self._direct_timers.pop(key, None)
        # The request reached us by unicast but aom never delivered it.
        # Only suspect the sequencer when aom has gone *silent*: if other
        # messages are still being delivered — or a fresh sequencer epoch
        # was just installed and has not had a full timeout to prove
        # itself — the client's retries (or the gap machinery) will
        # resolve this request without another epoch change.
        last_progress = max(
            self.aom_lib.last_delivery_ns, self.aom_lib.epoch_installed_ns
        )
        recently_delivering = (
            self.sim.now - last_progress < self.direct_request_timeout_ns
        )
        if recently_delivering and strikes < 10:
            self._direct_timers[key] = self.set_timer(
                self.direct_request_timeout_ns, self._direct_timeout, key, strikes + 1
            )
            return
        self._suspect_sequencer()

    def _suspect_sequencer(self) -> None:
        now = self.sim.now
        if self._epoch_wait is not None:
            awaited, deadline = self._epoch_wait
            if now < deadline and self.aom_lib.epoch < awaited:
                return  # failover already under way; give it time
        self.metrics.add("sequencer_suspicions")
        target = self.view_id.next_epoch()
        self._epoch_wait = (target.epoch, now + self.failover_grace_ns)
        self._initiate_view_change(target)

    # ------------------------------------------------------------------
    # drop handling (§5.4)
    # ------------------------------------------------------------------

    def _gap_state(self, slot: int) -> _GapState:
        state = self._gaps.get(slot)
        if state is None:
            state = _GapState(self.group.quorum)
            self._gaps[slot] = state
        return state

    def _begin_gap(self, slot: int) -> None:
        if slot != self.log.next_slot:
            # A drop-notification for a slot we already resolved.
            return
        self.blocked_slot = slot
        self.metrics.add("gaps_started")
        self._arm_blocked_timer()
        if self.is_leader:
            state = self._gap_state(slot)
            own = self.signed(GapDrop(self.view_id, self.address, slot))
            state.drop_votes[self.address] = own
            self._broadcast_gap_find(slot)
        else:
            self._send_query(slot)

    def _arm_blocked_timer(self) -> None:
        if self._blocked_timer is not None:
            self._blocked_timer.cancel()
        blocked_at = self.blocked_slot
        view = self.view_id

        def fire() -> None:
            self._blocked_timer = None
            if self.blocked_slot == blocked_at and self.view_id == view:
                self.metrics.add("blocked_timeouts")
                self._initiate_view_change(self.view_id.next_leader())

        self._blocked_timer = self.set_timer(self.blocked_timeout_ns, fire)

    def _send_query(self, slot: int, attempt: int = 0) -> None:
        if attempt == 0:
            self.send(self.leader_addr, Query(self.view_id, slot))
        else:
            # The leader may itself be blocked or behind; certificates are
            # self-verifying, so fan the retry out to everyone.
            for peer in self.peers():
                self.send(peer, Query(self.view_id, slot))
        state = self._gap_state(slot)
        if self._query_timer is not None:
            self._query_timer.cancel()

        def resend() -> None:
            self._query_timer = None
            if self.blocked_slot == slot and not state.awaiting_decision:
                self._send_query(slot, attempt + 1)

        self._query_timer = self.set_timer(QUERY_RESEND_NS, resend)

    def _broadcast_gap_find(self, slot: int) -> None:
        state = self._gap_state(slot)
        find = self.signed(GapFind(self.view_id, slot))
        self.broadcast(find)
        if state.find_timer is not None:
            state.find_timer.cancel()

        def rebroadcast() -> None:
            state.find_timer = None
            if not state.resolved and self.blocked_slot == slot:
                self._broadcast_gap_find(slot)

        state.find_timer = self.set_timer(QUERY_RESEND_NS, rebroadcast)

    def _entry_certificate(self, slot: int) -> Optional[OrderingCertificate]:
        entry = self.log.get(slot)
        if entry is not None and entry.kind == EntryKind.REQUEST:
            evidence = entry.evidence
            if isinstance(evidence, OrderingCertificate):
                return evidence
        return None

    def _on_query(self, src: int, query: Query) -> None:
        if query.view.epoch != self.view_id.epoch:
            return  # certificates transfer within an epoch; leader-num may lag
        cert = self._entry_certificate(query.slot)
        if cert is not None:
            self.send(src, QueryReply(self.view_id, query.slot, cert))
            return
        gap_cert = self._gap_certs.get(query.slot)
        if gap_cert is not None:
            # The slot committed as a no-op; replay the gap certificate.
            for commit in gap_cert:
                self.send(src, commit)

    def _on_query_reply(self, reply: QueryReply) -> None:
        if reply.view != self.view_id or self.blocked_slot != reply.slot:
            return
        state = self._gap_state(reply.slot)
        if state.awaiting_decision:
            return  # §5.4: after gap-drop we only accept the agreement
        if not self._validate_oc_for_slot(reply.oc, reply.slot):
            return
        self._resolve_gap_with_request(reply.slot, reply.oc)

    def _validate_oc_for_slot(self, oc: OrderingCertificate, slot: int) -> bool:
        expected = self._slot_for(oc.epoch, oc.sequence)
        if expected != slot:
            return False
        return self._validate_oc(oc)

    def _validate_oc(self, oc: OrderingCertificate) -> bool:
        """Full check of a *transferred* certificate.

        Beyond the aom authenticator, the payload must hash to the digest
        the switch authenticated — otherwise a Byzantine relayer could
        splice an arbitrary request under a genuine ordering certificate.
        """
        payload = oc.payload
        if not isinstance(payload, ClientRequest):
            return False  # only bound client requests ever get delivered
        if self.crypto.digest(payload.canonical()) != oc.digest:
            return False
        return self.aom_lib.verify_certificate(oc)

    def _resolve_gap_with_request(self, slot: int, oc: OrderingCertificate) -> None:
        if slot != self.log.next_slot:
            return
        self._clear_gap_timers(slot)
        self.blocked_slot = None
        if self._blocked_timer is not None:
            self._blocked_timer.cancel()
            self._blocked_timer = None
        self._append_request(oc)
        self._drain()

    def _resolve_gap_with_noop(self, slot: int, gap_cert: Tuple[GapCommit, ...]) -> None:
        self._gap_certs[slot] = gap_cert
        self._clear_gap_timers(slot)
        if slot < self.log.next_slot:
            # Already executed a request here: roll back, no-op, re-execute.
            # A released slot (below the low-water mark) is durable at every
            # replica; like a no-op in place, it keeps its log entry.
            entry = self.log.get(slot)
            if entry is None or entry.kind == EntryKind.NOOP:
                return
            self.metrics.add("rollbacks")
            self.log.overwrite_with_noop(slot, gap_cert, _view_int(self.view_id))
            self._execute_ready()
        elif slot == self.log.next_slot:
            self.log.append(
                LogEntry(
                    kind=EntryKind.NOOP,
                    digest=NOOP_DIGEST,
                    evidence=gap_cert,
                    view=_view_int(self.view_id),
                    epoch=self.view_id.epoch,
                    committed=True,
                )
            )
            self._execute_ready()
        if self.blocked_slot == slot:
            self.blocked_slot = None
            if self._blocked_timer is not None:
                self._blocked_timer.cancel()
                self._blocked_timer = None
            self._drain()

    def _clear_gap_timers(self, slot: int) -> None:
        state = self._gaps.get(slot)
        if state is not None:
            state.resolved = True
            if state.find_timer is not None:
                state.find_timer.cancel()
        if self._query_timer is not None:
            self._query_timer.cancel()
            self._query_timer = None

    # --- gap agreement message handlers --------------------------------

    def _on_gap_find(self, src: int, find: GapFind) -> None:
        if find.view != self.view_id or src != self.leader_addr:
            return
        signer = self.group.leader_addr(find.view.leader_num)
        if not self.crypto.verify(signer, find.signed_body(), find.signature):
            return
        cert = self._entry_certificate(find.slot)
        if cert is None:
            # Maybe it is still queued (delivered but behind a gap).
            for kind, item in self._queue:
                if kind == "oc" and self._slot_for(item.epoch, item.sequence) == find.slot:
                    cert = item
                    break
        if cert is not None:
            self.send(src, GapRecv(self.view_id, find.slot, cert))
            return
        if self.blocked_slot == find.slot:
            state = self._gap_state(find.slot)
            state.awaiting_decision = True
            drop = self.signed(GapDrop(self.view_id, self.address, find.slot))
            self.send(src, drop)
        # If we have not reached the slot yet we stay silent; the leader
        # keeps rebroadcasting gap-find until a quorum forms.

    def _on_gap_recv(self, src: int, recv: GapRecv) -> None:
        if recv.view != self.view_id or not self.is_leader:
            return
        state = self._gap_state(recv.slot)
        if state.decision is not None or state.resolved:
            return
        if not self._validate_oc_for_slot(recv.oc, recv.slot):
            return
        decision = GapDecision(self.view_id, recv.slot, recv_oc=recv.oc)
        self._broadcast_gap_decision(decision)

    def _on_gap_drop(self, src: int, drop: GapDrop) -> None:
        if drop.view != self.view_id or not self.is_leader:
            return
        if drop.replica not in self.group.replica_addrs or drop.replica != src:
            return
        state = self._gap_state(drop.slot)
        if state.decision is not None or state.resolved:
            return
        if not self.crypto.verify(drop.replica, drop.signed_body(), drop.signature):
            return
        state.drop_votes[drop.replica] = drop
        if len(state.drop_votes) >= self.group.quorum:
            evidence = tuple(sorted(state.drop_votes.values(), key=lambda d: d.replica))
            decision = GapDecision(self.view_id, drop.slot, drop_evidence=evidence)
            self._broadcast_gap_decision(decision)

    def _broadcast_gap_decision(self, decision: GapDecision) -> None:
        state = self._gap_state(decision.slot)
        decision = self.signed(decision)
        state.decision = decision
        self.broadcast(decision)
        self._after_valid_decision(decision)

    def _on_gap_decision(self, src: int, decision: GapDecision) -> None:
        if decision.view != self.view_id or src != self.leader_addr:
            return
        state = self._gap_state(decision.slot)
        if state.decision is not None:
            return
        signer = self.group.leader_addr(decision.view.leader_num)
        if not self.crypto.verify(signer, decision.signed_body(), decision.signature):
            return
        if decision.is_drop:
            if not self._validate_drop_evidence(decision):
                return
        else:
            if not self._validate_oc_for_slot(decision.recv_oc, decision.slot):
                return
        state.decision = decision
        self._after_valid_decision(decision)

    def _validate_drop_evidence(self, decision: GapDecision) -> bool:
        return self.certified(
            decision.drop_evidence,
            lambda drop: drop.slot == decision.slot and drop.view == decision.view,
        )

    def _after_valid_decision(self, decision: GapDecision) -> None:
        state = self._gap_state(decision.slot)
        if not state.sent_prepare:
            state.sent_prepare = True
            prepare = self.signed(
                GapPrepare(self.view_id, self.address, decision.slot, decision.is_drop)
            )
            state.prepares[decision.is_drop][self.address] = prepare
            self.broadcast(prepare)
        self._check_gap_progress(decision.slot)

    def _on_gap_prepare(self, src: int, prepare: GapPrepare) -> None:
        if prepare.view != self.view_id or prepare.replica != src:
            return
        if prepare.replica not in self.group.replica_addrs:
            return
        if not self.crypto.verify(prepare.replica, prepare.signed_body(), prepare.signature):
            return
        state = self._gap_state(prepare.slot)
        state.prepares[prepare.is_drop][prepare.replica] = prepare
        self._check_gap_progress(prepare.slot)

    def _check_gap_progress(self, slot: int) -> None:
        state = self._gap_state(slot)
        if state.decision is None or state.sent_commit or state.resolved:
            return
        is_drop = state.decision.is_drop
        others = [r for r in state.prepares[is_drop] if r != self.address]
        # 2f gap-prepares from distinct replicas (own one may count).
        if len(state.prepares[is_drop]) >= 2 * self.group.f:
            state.sent_commit = True
            commit = self.signed(GapCommit(self.view_id, self.address, slot, is_drop))
            state.commits[is_drop][self.address] = commit
            self.broadcast(commit)
            self._check_gap_commit(slot)

    def _on_gap_commit(self, src: int, commit: GapCommit) -> None:
        if commit.view.epoch != self.view_id.epoch:
            return
        if commit.replica not in self.group.replica_addrs or commit.replica != src:
            return
        if not self.crypto.verify(commit.replica, commit.signed_body(), commit.signature):
            return
        state = self._gap_state(commit.slot)
        state.commits[commit.is_drop][commit.replica] = commit
        self._check_gap_commit(commit.slot)

    def _check_gap_commit(self, slot: int) -> None:
        state = self._gap_state(slot)
        if state.resolved:
            return
        for is_drop, commits in state.commits.items():
            if len(commits) >= self.group.quorum:
                gap_cert = tuple(sorted(commits.values(), key=lambda c: c.replica))
                state.resolved = True
                self.metrics.add("gaps_resolved")
                if is_drop:
                    self._resolve_gap_with_noop(slot, gap_cert)
                else:
                    decision = state.decision
                    if decision is not None and decision.recv_oc is not None:
                        self._gap_certs.pop(slot, None)
                        if self.blocked_slot == slot:
                            self._resolve_gap_with_request(slot, decision.recv_oc)
                return

    # ------------------------------------------------------------------
    # state synchronization (B.2)
    # ------------------------------------------------------------------

    def _maybe_sync(self, slot: int) -> None:
        boundary = ((slot + 1) // self.sync_interval) * self.sync_interval
        if boundary <= self._last_sync_slot or boundary == 0:
            return
        self._last_sync_slot = boundary
        drops = tuple(
            (s, cert)
            for s, cert in self._gap_certs.items()
            if s < boundary and cert and cert[0].view.epoch == self.view_id.epoch
        )
        sync = SyncMessage(self.view_id, self.address, boundary, drops)
        body = sync.signed_body()
        for peer in self.peers():
            tag = self.crypto.mac_to(peer, body)
            self.send(peer, SyncMessage(sync.view, sync.replica, sync.slot, sync.drops, tag))
        self._record_sync_vote(sync)

    def _on_sync(self, src: int, sync: SyncMessage) -> None:
        if sync.view != self.view_id or sync.replica != src:
            return
        if not self.crypto.verify_mac_from(src, sync.signed_body(), sync.tag):
            return
        for slot, cert in sync.drops:
            self._apply_foreign_gap_cert(slot, cert)
        self._record_sync_vote(sync)

    def _record_sync_vote(self, sync: SyncMessage) -> None:
        votes = self._sync_votes.setdefault(sync.slot, {})
        votes[sync.replica] = sync
        # 2f from others (plus self) finalizes the sync point.
        if len(votes) > 2 * self.group.f and sync.slot <= len(self.log):
            self.log.mark_committed_up_to(sync.slot - 1)
            self.metrics.add("sync_points")
            for stale in [s for s in self._sync_votes if s < sync.slot]:
                self._sync_votes.pop(stale, None)
            # Once all n replicas announced the point in this view, every
            # one has logged [0, slot): none will query, gap-find or
            # state-transfer below it, and each rebuilds a view-change
            # merge from its own entries at or above its commit cursor.
            # 2f+1 would strand a lagging correct replica, which would
            # then need checkpoint state transfer.
            if all(
                votes.get(r) is not None and votes[r].view == self.view_id
                for r in self.group.replica_addrs
            ):
                self.log.release_below(sync.slot)

    def _apply_foreign_gap_cert(self, slot: int, cert: Tuple[GapCommit, ...]) -> None:
        if slot in self._gap_certs:
            return
        epoch = self.view_id.epoch
        if not self.certified(
            cert,
            lambda commit: commit.is_drop
            and commit.slot == slot
            and commit.view.epoch == epoch,
        ):
            return
        entry = self.log.get(slot)
        if slot < self.log.low_water or (entry is not None and entry.kind == EntryKind.NOOP):
            self._gap_certs[slot] = cert
            return
        self._resolve_gap_with_noop(slot, cert)

    # ------------------------------------------------------------------
    # view changes (§5.5, B.1)
    # ------------------------------------------------------------------

    def _log_summary(self) -> Tuple[LogEntrySummary, ...]:
        """Suffix of the log after the committed prefix, as summaries."""
        return self._summaries_range(self.log.commit_cursor, len(self.log))

    def _initiate_view_change(self, new_view: ViewId) -> None:
        if self._vc_sent_for is not None and self._vc_sent_for >= new_view:
            return
        if new_view <= self.view_id:
            return
        self.metrics.add("view_changes_started")
        self.in_view_change = True
        self._vc_sent_for = new_view
        vc = self.signed(ViewChange(
            view=self.view_id,
            new_view=new_view,
            replica=self.address,
            epoch_certs=tuple(self.epoch_certs.values()),
            log=self._log_summary(),
        ))
        self._vc_messages.setdefault(new_view, {})[self.address] = vc
        self.broadcast(vc)
        self._arm_vc_timer(new_view)
        self._maybe_start_view(new_view)

    def _arm_vc_timer(self, new_view: ViewId) -> None:
        if self._vc_timer is not None:
            self._vc_timer.cancel()

        def escalate() -> None:
            self._vc_timer = None
            if self.in_view_change and self.view_id < new_view:
                self._initiate_view_change(new_view.next_leader())

        self._vc_timer = self.set_timer(self.view_change_timeout_ns, escalate)

    def _on_view_change(self, src: int, vc: ViewChange) -> None:
        if vc.replica != src or vc.replica not in self.group.replica_addrs:
            return
        if vc.new_view <= self.view_id:
            return
        if not self.crypto.verify(vc.replica, vc.signed_body(), vc.signature):
            return
        bucket = self._vc_messages.setdefault(vc.new_view, {})
        bucket[vc.replica] = vc
        # Join rule: f+1 distinct replicas pushing views above ours.
        above = {}
        for view, msgs in self._vc_messages.items():
            if view > self.view_id and (self._vc_sent_for is None or view > self._vc_sent_for):
                for rid in msgs:
                    above[rid] = max(above.get(rid, view), view)
        if len(above) > self.group.f:
            self._initiate_view_change(max(above.values()))
        self._maybe_start_view(vc.new_view)

    def _maybe_start_view(self, new_view: ViewId) -> None:
        if self.group.leader_index(new_view.leader_num) != self.replica_id:
            return
        if self._sent_view_start.get(new_view):
            return
        bucket = self._vc_messages.get(new_view, {})
        if self.address not in bucket:
            return  # need our own view-change first
        if len(bucket) < self.group.quorum:
            return
        chosen = tuple(sorted(bucket.values(), key=lambda m: m.replica))[: self.group.quorum]
        start = self.signed(ViewStart(new_view, chosen))
        self._sent_view_start[new_view] = True
        self.broadcast(start)
        self._adopt_view_start(start)

    def _on_view_start(self, src: int, start: ViewStart) -> None:
        if start.new_view <= self.view_id:
            return
        leader = self.group.leader_addr(start.new_view.leader_num)
        if src != leader:
            return
        if not self.crypto.verify(leader, start.signed_body(), start.signature):
            return
        if not self.certified(
            start.view_changes, lambda vc: vc.new_view == start.new_view
        ):
            return
        self._adopt_view_start(start)

    def _adopt_view_start(self, start: ViewStart) -> None:
        merged = self._merge_logs(start.view_changes)
        self._apply_merged_log(merged)
        new_view = start.new_view
        if new_view.epoch > self.view_id.epoch:
            # Cross-epoch: exchange epoch-start to agree on the boundary.
            self._announce_epoch_start(new_view)
        else:
            self._enter_view(new_view)

    def _announce_epoch_start(self, new_view: ViewId) -> None:
        """Propose our log end as ``new_view``'s epoch boundary."""
        slot = len(self.log)
        self._pending_epoch_entry = (new_view, slot)
        epoch_start = self.signed(EpochStart(new_view.epoch, slot, self.address))
        votes = self._epoch_start_votes.setdefault((new_view.epoch, slot), {})
        votes[self.address] = epoch_start
        self.broadcast(epoch_start)
        self._check_epoch_quorum(new_view.epoch, slot)

    def _on_epoch_start(self, src: int, epoch_start: EpochStart) -> None:
        if epoch_start.replica != src or src not in self.group.replica_addrs:
            return
        if epoch_start.epoch <= self.view_id.epoch:
            return
        if not self.crypto.verify(
            epoch_start.replica, epoch_start.signed_body(), epoch_start.signature
        ):
            return
        votes = self._epoch_start_votes.setdefault((epoch_start.epoch, epoch_start.slot), {})
        votes[epoch_start.replica] = epoch_start
        self._check_epoch_quorum(epoch_start.epoch, epoch_start.slot)

    def _check_epoch_quorum(self, epoch: int, slot: int) -> None:
        if self._pending_epoch_entry is None:
            return
        pending_view, pending_slot = self._pending_epoch_entry
        if pending_view.epoch != epoch:
            return
        votes = self._epoch_start_votes.get((epoch, slot), {})
        if len(votes) < self.group.quorum:
            return
        if pending_slot != slot:
            # A quorum agreed on an epoch boundary beyond our log (our
            # view-change suffixes did not reach back far enough): fetch
            # the missing entries, then re-announce at the agreed slot.
            if slot > len(self.log):
                voter = next(r for r in votes if r != self.address)
                self.metrics.add("state_transfers")
                self.send(voter, StateTransferRequest(epoch, len(self.log), slot))
            return
        cert = EpochCertificate(
            epoch=epoch,
            slot=slot,
            starts=tuple(sorted(votes.values(), key=lambda s: s.replica)),
        )
        self.epoch_certs[epoch] = cert
        self._pending_epoch_entry = None
        self.epoch_bases[epoch] = slot
        self._enter_view(pending_view)
        # Ask the configuration service to install the new sequencer.
        if self.config_service_addr is not None:
            self.send(
                self.config_service_addr,
                FailoverRequest(self.group_id, epoch - 1, self.address),
            )

    # --- state transfer (laggard catch-up during epoch changes) ---------

    def request_state_transfer(self, up_to: Optional[int] = None) -> None:
        """Ask peers for everything past our log tail (crash-recovery replay).

        Used by the crash-recover fault behaviour: a replica that slept
        through a stretch of deliveries pulls the missed entries in one
        sweep instead of discovering them slot by slot through gap
        agreements. Peers clamp the range to their own log length, so an
        open-ended request is safe.
        """
        self.metrics.add("state_transfers")
        target = up_to if up_to is not None else len(self.log) + 1_000_000
        for peer in self.peers():
            self.send(
                peer, StateTransferRequest(self.view_id.epoch, len(self.log), target)
            )

    def _summaries_range(self, start: int, end: int) -> Tuple[LogEntrySummary, ...]:
        out = []
        for slot in range(max(self.log.low_water, start), min(end, len(self.log))):
            entry = self.log.get(slot)
            out.append(
                LogEntrySummary(
                    slot=slot,
                    is_noop=entry.kind == EntryKind.NOOP,
                    epoch=entry.epoch,
                    digest=entry.digest,
                    request=entry.request,
                    oc=entry.evidence if isinstance(entry.evidence, OrderingCertificate) else None,
                    gap_cert=entry.evidence if isinstance(entry.evidence, tuple) else
                    self._gap_certs.get(slot, ()),
                )
            )
        return tuple(out)

    def _on_state_transfer_request(self, src: int, request: StateTransferRequest) -> None:
        entries = self._summaries_range(request.from_slot, request.to_slot)
        if entries:
            self.send(src, StateTransferReply(request.epoch, request.from_slot, entries))

    def _on_state_transfer_reply(self, src: int, reply: StateTransferReply) -> None:
        appended = False
        for summary in sorted(reply.entries, key=lambda e: e.slot):
            if summary.slot < len(self.log):
                continue
            if summary.slot != len(self.log):
                break  # non-contiguous: stop at the hole
            if not self._entry_is_valid(summary):
                break
            self._append_summary(summary)
            appended = True
        if not appended:
            return
        self._execute_ready()
        # If an epoch boundary was blocked on these entries, re-announce
        # our epoch-start at the (possibly now reachable) agreed slot.
        if self._pending_epoch_entry is not None:
            pending_view, _ = self._pending_epoch_entry
            if pending_view.epoch == reply.epoch:
                self._announce_epoch_start(pending_view)

    def _append_summary(self, summary: LogEntrySummary) -> None:
        """Append a transferred or merged entry at the log's end."""
        if summary.is_noop:
            self.log.append(
                LogEntry(kind=EntryKind.NOOP, digest=NOOP_DIGEST,
                         evidence=summary.gap_cert, epoch=summary.epoch,
                         committed=True)
            )
            self._gap_certs[summary.slot] = summary.gap_cert
        else:
            self.log.append(
                LogEntry(kind=EntryKind.REQUEST, digest=summary.digest,
                         request=summary.request, evidence=summary.oc,
                         epoch=summary.epoch)
            )

    def _enter_view(self, new_view: ViewId) -> None:
        epoch_changed = new_view.epoch > self.view_id.epoch
        self.view_id = new_view
        self.in_view_change = False
        self._vc_sent_for = None
        self.metrics.add("views_entered")
        if self._vc_timer is not None:
            self._vc_timer.cancel()
            self._vc_timer = None
        # Reset per-view exception state.
        self.blocked_slot = None
        if self._blocked_timer is not None:
            self._blocked_timer.cancel()
            self._blocked_timer = None
        if self._query_timer is not None:
            self._query_timer.cancel()
            self._query_timer = None
        for state in self._gaps.values():
            if state.find_timer is not None:
                state.find_timer.cancel()
        self._gaps.clear()
        if epoch_changed:
            self._queue.clear()  # old-epoch deliveries are settled by merge
        for timer in self._direct_timers.values():
            timer.cancel()
        self._direct_timers.clear()
        self._drain()

    # --- B.1 log merge ---------------------------------------------------

    def _merge_logs(self, view_changes: Tuple[ViewChange, ...]) -> Dict[int, LogEntrySummary]:
        """The four-step merge, over sync-point suffixes.

        Returns slot -> winning entry summary for every slot any message
        (or our own log) covers beyond our committed prefix.
        """
        merged: Dict[int, LogEntrySummary] = {}
        for summary in self._log_summary():
            merged[summary.slot] = summary
        # Steps 2-3: take requests from the longest valid log.
        for vc in sorted(view_changes, key=lambda m: _log_end(m), reverse=True):
            for entry in vc.log:
                if entry.slot < self.log.commit_cursor:
                    continue
                if entry.slot not in merged and self._entry_is_valid(entry):
                    merged[entry.slot] = entry
        # Step 4: no-ops override requests wherever a gap certificate exists.
        for vc in view_changes:
            for entry in vc.log:
                if entry.slot < self.log.commit_cursor:
                    continue
                if entry.is_noop and self._entry_is_valid(entry):
                    current = merged.get(entry.slot)
                    if current is None or not current.is_noop:
                        merged[entry.slot] = entry
        return merged

    def _entry_is_valid(self, entry: LogEntrySummary) -> bool:
        if entry.is_noop:
            return self.certified(
                entry.gap_cert,
                lambda commit: commit.slot == entry.slot and commit.is_drop,
            )
        if entry.oc is None:
            return False
        return self._validate_oc(entry.oc)

    def _apply_merged_log(self, merged: Dict[int, LogEntrySummary]) -> None:
        if not merged:
            return
        first_change: Optional[int] = None
        for slot in sorted(merged):
            existing = self.log.get(slot)
            summary = merged[slot]
            if existing is None or existing.digest != summary.digest:
                first_change = slot
                break
        if first_change is None:
            # Content agrees; nothing to rewrite, but fill trailing holes.
            top = max(merged)
            if top < len(self.log):
                return
            first_change = len(self.log)
        # The first difference may sit beyond our log's end (the merged
        # logs are longer than ours); then nothing is rewritten — we only
        # append from our current tail.
        first_change = min(first_change, len(self.log))
        # Truncate and rebuild from first_change using merged winners.
        self.log.truncate(first_change)
        for slot in sorted(s for s in merged if s >= first_change):
            if slot != len(self.log):
                break  # hole in the merged coverage: stop (state transfer)
            self._append_summary(merged[slot])
        self._execute_ready()

    # ------------------------------------------------------------------
    # epoch config from the configuration service
    # ------------------------------------------------------------------

    def _on_epoch_config(self, config: EpochConfig) -> None:
        self.aom_lib.install_epoch(config)
        if self._epoch_wait is not None and config.epoch >= self._epoch_wait[0]:
            self._epoch_wait = None
        # Suspicion timers armed while the old epoch was dying are stale:
        # give every pending request a full timeout against the fresh
        # sequencer before suspecting it too.
        for key, timer in list(self._direct_timers.items()):
            timer.cancel()
            self._direct_timers[key] = self.set_timer(
                self.direct_request_timeout_ns, self._direct_timeout, key
            )
        if config.epoch > self.view_id.epoch:
            # The service moved ahead of us (we missed the view change);
            # adopt the epoch at our current log position via view change.
            self._initiate_view_change(ViewId(config.epoch, self.view_id.leader_num + 1))

    def on_sequencer_stuck(self, epoch: int, blocked_sequence: int) -> None:
        """libAOM stuck callback: sequencer equivocation/starvation."""
        if epoch == self.view_id.epoch:
            self._suspect_sequencer()


def _view_int(view: ViewId) -> int:
    """Flatten a ViewId into the int reply field clients compare."""
    return view.epoch * 1_000_000 + view.leader_num


def _log_end(vc: ViewChange) -> int:
    if not vc.log:
        return 0
    return vc.log[-1].slot + 1
