"""Protocol-agnostic client messages.

Client traffic is authenticated with MAC vectors over pairwise session
keys, made and checked by the nodes' crypto contexts — the classic PBFT
optimization every high-performance BFT implementation (including the
paper's comparison framework) uses for the normal case; signatures are reserved for messages that third parties must
be able to verify (view changes, gap agreement evidence, confirms).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.crypto.digests import fields_digest, remember
from repro.crypto.hmacvec import HmacVector
from repro.records import record


@record(frozen=True, memo=("_canonical",))
class ClientRequest:
    """<REQUEST, op, request-id> from a client."""

    client_id: int
    request_id: int
    op: bytes
    auth: Optional[HmacVector] = None  # MAC vector over the replicas

    def canonical(self) -> bytes:
        """Stable byte form the digest/MACs cover (computed once)."""
        return self._canonical or remember(
            self, "_canonical", request_body(self.client_id, self.request_id, self.op)
        )

    def key(self) -> tuple:
        """Identity for at-most-once deduplication."""
        return (self.client_id, self.request_id)

    def wire_size(self) -> int:
        size = 20 + len(self.op)
        if self.auth is not None:
            size += self.auth.wire_size()
        return size


def request_body(client_id: int, request_id: int, op: bytes) -> bytes:
    """:meth:`ClientRequest.canonical` of a request with these fields."""
    return fields_digest(b"request", client_id, request_id, op)


def reply_body(
    view: int, replica: int, request_id: int, result: bytes, slot: int, log_hash: bytes
) -> bytes:
    """:meth:`ClientReply.signed_body` of a reply with these fields."""
    return fields_digest(b"reply", view, replica, request_id, result, slot, log_hash)


def batch_digest(batch: Tuple[ClientRequest, ...]) -> bytes:
    """Digest of an ordered request batch."""
    return fields_digest(b"batch", *[r.canonical() for r in batch])


@record(frozen=True, memo=("_signed_body",))
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
        """Bytes the reply MAC covers (computed once)."""
        return self._signed_body or remember(
            self,
            "_signed_body",
            reply_body(
                self.view, self.replica, self.request_id, self.result,
                self.slot, self.log_hash,
            ),
        )

    def match_key(self) -> tuple:
        """Fields that must agree across replicas for a reply quorum."""
        return (self.view, self.result, self.slot, self.log_hash)

    def wire_size(self) -> int:
        return 40 + len(self.result) + len(self.log_hash) + len(self.tag)
