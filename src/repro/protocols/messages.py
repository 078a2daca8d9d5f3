"""Protocol-agnostic client messages and authentication helpers.

Client traffic is authenticated with MAC vectors over pairwise session
keys — the classic PBFT optimization every high-performance BFT
implementation (including the paper's comparison framework) uses for the
normal case; signatures are reserved for messages that third parties must
be able to verify (view changes, gap agreement evidence, confirms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from repro.crypto.digests import fields_digest
from repro.crypto.hmacvec import HmacVector


@dataclass(frozen=True)
class ClientRequest:
    """<REQUEST, op, request-id> from a client."""

    client_id: int
    request_id: int
    op: bytes
    auth: Optional[HmacVector] = None  # MAC vector over the replicas

    def canonical(self) -> bytes:
        """Stable byte form the digest/MACs cover."""
        return fields_digest(b"request", self.client_id, self.request_id, self.op)

    def key(self) -> tuple:
        """Identity for at-most-once deduplication."""
        return (self.client_id, self.request_id)

    def wire_size(self) -> int:
        size = 20 + len(self.op)
        if self.auth is not None:
            size += self.auth.wire_size()
        return size


def batch_digest(batch: Tuple[ClientRequest, ...]) -> bytes:
    """Digest of an ordered request batch."""
    return fields_digest(b"batch", *[r.canonical() for r in batch])


@dataclass(frozen=True)
class ClientReply:
    """<REPLY, view, replica, request-id, result [, slot, log-hash]>."""

    view: int
    replica: int
    request_id: int
    result: bytes
    slot: int = 0
    log_hash: bytes = b""
    tag: bytes = b""  # MAC to the client
    extra: Any = None  # protocol-specific (e.g. Zyzzyva history/spec info)

    def signed_body(self) -> bytes:
        """Bytes the reply MAC covers."""
        return fields_digest(
            b"reply",
            self.view,
            self.replica,
            self.request_id,
            self.result,
            self.slot,
            self.log_hash,
        )

    def match_key(self) -> tuple:
        """Fields that must agree across replicas for a reply quorum."""
        return (self.view, self.result, self.slot, self.log_hash)

    def wire_size(self) -> int:
        return 40 + len(self.result) + len(self.log_hash) + len(self.tag)


def authenticate_request(pairwise, client_id: int, replica_ids: Sequence[int], request: ClientRequest, mac_fn) -> ClientRequest:
    """Attach a MAC vector covering every replica to a request.

    ``mac_fn(key, data) -> tag`` is the client's charged MAC primitive.
    """
    body = request.canonical()
    vector = HmacVector(
        tuple(
            (rid, mac_fn(pairwise.key_between(client_id, rid), body))
            for rid in replica_ids
        )
    )
    return ClientRequest(request.client_id, request.request_id, request.op, vector)


def verify_request(pairwise, replica_id: int, request: ClientRequest, verify_fn) -> bool:
    """Replica-side check of the client's MAC-vector entry."""
    if request.auth is None or not request.auth.has_entry(replica_id):
        return False
    key = pairwise.key_between(request.client_id, replica_id)
    return verify_fn(key, request.canonical(), request.auth.tag_for(replica_id))
