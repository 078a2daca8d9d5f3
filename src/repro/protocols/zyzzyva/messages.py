"""Zyzzyva wire formats."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

from repro.crypto.digests import chain_step, fields_digest, remember
from repro.crypto.hmacvec import HmacVector
from repro.protocols import adversary
from repro.protocols.messages import ClientRequest, batch_digest
from repro.records import record


def order_req_body(view: int, seq: int, history: bytes, digest: bytes) -> bytes:
    """:meth:`OrderReq.signed_body` of an order-req with these fields."""
    return fields_digest(b"order-req", view, seq, history, digest)


@record(frozen=True, memo=("_signed_body",))
class OrderReq:
    """<ORDER-REQ, v, n, h_n, d> plus the batch: primary -> replicas."""

    view: int
    seq: int
    history: bytes  # hash-chained history digest after this batch
    digest: bytes
    batch: Tuple[ClientRequest, ...]
    auth: Optional[HmacVector] = None

    def signed_body(self) -> bytes:
        return self._signed_body or remember(
            self,
            "_signed_body",
            order_req_body(self.view, self.seq, self.history, self.digest),
        )

    def wire_size(self) -> int:
        size = 84 + sum(r.wire_size() for r in self.batch)
        if self.auth is not None:
            size += self.auth.wire_size()
        return size


@record(frozen=True)
class SpecResponseInfo:
    """Extra fields a speculative reply carries (inside ClientReply.extra)."""

    seq: int
    history: bytes
    order_digest: bytes


@record(frozen=True)
class CommitCertEntry:
    """One replica's contribution to a commit certificate."""

    replica: int
    seq: int
    history: bytes
    result_digest: bytes


@record(frozen=True)
class ClientCommit:
    """<COMMIT, cc>: client -> replicas when the fast path stalls."""

    client_id: int
    request_id: int
    seq: int
    history: bytes
    entries: Tuple[CommitCertEntry, ...]
    auth: Optional[HmacVector] = None

    def signed_body(self) -> bytes:
        return fields_digest(
            b"client-commit",
            self.client_id,
            self.request_id,
            self.seq,
            self.history,
        )

    def wire_size(self) -> int:
        return 60 + 56 * len(self.entries)


@record(frozen=True)
class LocalCommit:
    """<LOCAL-COMMIT, v, d, h, i, c>: replica acknowledges the certificate."""

    view: int
    replica: int
    client_id: int
    request_id: int
    seq: int
    auth_tag: bytes = b""

    def signed_body(self) -> bytes:
        return fields_digest(
            b"local-commit",
            self.view,
            self.replica,
            self.client_id,
            self.request_id,
            self.seq,
        )


@record(frozen=True)
class FillHole:
    """<FILL-HOLE, v, n>: replica asks the primary for a missed batch."""

    view: int
    seq: int


# ---------------------------------------------------------------------------
# Adversary hooks: an equivocating primary forks the order-req (history
# chain re-derived from the fork); a withholder suppresses local commits.
# ---------------------------------------------------------------------------


def _fork_order_req(replica, dst: int, message: OrderReq) -> Optional[OrderReq]:
    forged_batch = adversary.conflicting_batch(message.batch)
    if forged_batch is None:
        return None
    digest = batch_digest(forged_batch)
    forged = OrderReq(
        message.view, message.seq, chain_step(message.history, digest),
        digest, forged_batch,
    )
    return replace(forged, auth=adversary.self_auth_for(replica, dst, forged.signed_body()))


adversary.register_proposal_mutator(OrderReq, _fork_order_req)
adversary.register_vote_types(LocalCommit)
