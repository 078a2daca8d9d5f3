"""The Zyzzyva replica: speculative execution on the primary's order."""

from __future__ import annotations

from typing import Dict, List

from repro.crypto.digests import chain_step
from repro.protocols.base import BaseReplica, ReplicaGroup
from repro.protocols.batching import TimedBatcher
from repro.protocols.log import EntryKind, LogEntry
from repro.protocols.messages import ClientRequest, batch_digest
from repro.protocols.zyzzyva.messages import (
    ClientCommit,
    FillHole,
    LocalCommit,
    OrderReq,
    SpecResponseInfo,
    order_req_body,
)


class ZyzzyvaReplica(BaseReplica):
    """One Zyzzyva replica.

    Log slot ``seq`` holds the primary's ``OrderReq`` for that sequence
    number as its evidence (the primary serves fill-hole from it), and the
    log's chain head is the Zyzzyva history digest.
    """

    PROTO = "zyzzyva"

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
        self.batcher: TimedBatcher[ClientRequest] = TimedBatcher(
            self, self._send_order_req, max_batch=batch_size, flush_after_ns=30_000
        )
        self.next_seq = 0  # primary's counter
        self._pending_order: Dict[int, OrderReq] = {}  # out-of-order buffer

    # ------------------------------------------------------------ dispatch

    def on_message(self, src: int, message: object) -> None:
        if isinstance(message, ClientRequest):
            self.on_client_request(message)
        elif isinstance(message, OrderReq):
            self._on_order_req(src, message)
        elif isinstance(message, ClientCommit):
            self._on_client_commit(src, message)
        elif isinstance(message, FillHole):
            self._on_fill_hole(src, message)

    # ---------------------------------------------------------- order path

    def _send_order_req(self, batch: List[ClientRequest]) -> None:
        seq = self.next_seq
        self.next_seq += 1
        batch = tuple(batch)
        digest = batch_digest(batch)
        self.charge(self.cost.sha256_ns * (len(batch) + 1))
        fields = (self.view, seq, chain_step(self.log.head_hash(), digest), digest)
        order = self.mac_broadcast(OrderReq, order_req_body(*fields), *fields, batch)
        self._apply_order(order)

    def _on_order_req(self, src: int, order: OrderReq) -> None:
        if order.view != self.view or src != self.leader_addr:
            return
        if not self.crypto.verify_vector_from(src, order.signed_body(), order.auth):
            return
        self.charge(self.cost.sha256_ns * (len(order.batch) + 1))
        if batch_digest(order.batch) != order.digest:
            return
        if order.seq > len(self.log):
            # Missed an earlier batch: buffer and ask the primary.
            self._pending_order[order.seq] = order
            self.send(self.leader_addr, FillHole(self.view, len(self.log)))
            return
        if order.seq < len(self.log):
            return  # duplicate
        self._apply_order(order)
        # Drain any buffered successors.
        while len(self.log) in self._pending_order:
            self._apply_order(self._pending_order.pop(len(self.log)))

    def _apply_order(self, order: OrderReq) -> None:
        expected_history = chain_step(self.log.head_hash(), order.digest)
        self.charge(self.cost.sha256_ns)
        if expected_history != order.history:
            return  # primary equivocated about history: ignore
        slot = self.log.append(
            LogEntry(kind=EntryKind.REQUEST, digest=order.digest, evidence=order)
        )
        info = SpecResponseInfo(order.seq, order.history, order.digest)
        for request in order.batch:
            if not self.check_request_auth(request):
                continue
            self.execute_request(
                request, slot=order.seq, log_hash=order.history, extra=info
            )
        self.log.mark_executed(slot, b"", None)

    # ----------------------------------------------------- slow-path commit

    def _on_client_commit(self, src: int, commit: ClientCommit) -> None:
        entries = commit.entries
        if len(entries) < self.group.quorum:
            return
        seen = set()
        for entry in entries:
            self.charge(self.cost.hmac_ns)  # certificate entry check
            if entry.replica in seen or entry.replica not in self.group.replica_addrs:
                return
            if entry.seq != commit.seq or entry.history != commit.history:
                return
            seen.add(entry.replica)
        if commit.seq >= len(self.log):
            return  # we have not even speculated this far; ignore
        self.log.mark_committed_up_to(commit.seq)
        ack = LocalCommit(
            view=self.view,
            replica=self.address,
            client_id=commit.client_id,
            request_id=commit.request_id,
            seq=commit.seq,
        )
        tag = self.crypto.mac_to(commit.client_id, ack.signed_body())
        self.send(
            commit.client_id,
            LocalCommit(ack.view, ack.replica, ack.client_id, ack.request_id, ack.seq, tag),
        )

    def _on_fill_hole(self, src: int, fill: FillHole) -> None:
        if not self.is_leader or fill.view != self.view:
            return
        entry = self.log.get(fill.seq)
        if entry is None:
            return
        order = entry.evidence
        self.send(src, OrderReq(order.view, order.seq, order.history, order.digest,
                                order.batch, self.crypto.mac_vector((src,), order.signed_body())))
