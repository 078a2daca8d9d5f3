"""PBFT wire formats.

Normal-case messages are MAC-vector authenticated; view-change evidence is
signed (it must convince third parties).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

from repro.crypto.digests import fields_digest, remember
from repro.crypto.hmacvec import HmacVector
from repro.protocols import adversary
from repro.protocols.messages import ClientRequest, batch_digest
from repro.records import record


def pre_prepare_body(view: int, seq: int, digest: bytes) -> bytes:
    """:meth:`PrePrepare.signed_body` of a pre-prepare with these fields."""
    return fields_digest(b"pre-prepare", view, seq, digest)


def prepare_body(view: int, seq: int, digest: bytes, replica: int) -> bytes:
    """:meth:`Prepare.signed_body` of a prepare with these fields."""
    return fields_digest(b"prepare", view, seq, digest, replica)


def commit_body(view: int, seq: int, digest: bytes, replica: int) -> bytes:
    """:meth:`Commit.signed_body` of a commit with these fields."""
    return fields_digest(b"commit", view, seq, digest, replica)


def checkpoint_body(seq: int, state_digest: bytes, replica: int) -> bytes:
    """:meth:`Checkpoint.signed_body` of a checkpoint with these fields."""
    return fields_digest(b"checkpoint", seq, state_digest, replica)


@record(frozen=True, memo=("_signed_body",))
class PrePrepare:
    """<PRE-PREPARE, v, n, d> plus the request batch (piggybacked)."""

    view: int
    seq: int
    digest: bytes
    batch: Tuple[ClientRequest, ...]
    auth: Optional[HmacVector] = None

    def signed_body(self) -> bytes:
        return self._signed_body or remember(
            self, "_signed_body", pre_prepare_body(self.view, self.seq, self.digest)
        )

    def wire_size(self) -> int:
        size = 52 + sum(r.wire_size() for r in self.batch)
        if self.auth is not None:
            size += self.auth.wire_size()
        return size


@record(frozen=True, memo=("_signed_body",))
class Prepare:
    """<PREPARE, v, n, d, i>."""

    view: int
    seq: int
    digest: bytes
    replica: int
    auth: Optional[HmacVector] = None

    def signed_body(self) -> bytes:
        return self._signed_body or remember(
            self, "_signed_body", prepare_body(self.view, self.seq, self.digest, self.replica)
        )


@record(frozen=True, memo=("_signed_body",))
class Commit:
    """<COMMIT, v, n, d, i>."""

    view: int
    seq: int
    digest: bytes
    replica: int
    auth: Optional[HmacVector] = None

    def signed_body(self) -> bytes:
        return self._signed_body or remember(
            self, "_signed_body", commit_body(self.view, self.seq, self.digest, self.replica)
        )


@record(frozen=True, memo=("_signed_body",))
class Checkpoint:
    """<CHECKPOINT, n, d, i>."""

    seq: int
    state_digest: bytes
    replica: int
    auth: Optional[HmacVector] = None

    def signed_body(self) -> bytes:
        return self._signed_body or remember(
            self,
            "_signed_body",
            checkpoint_body(self.seq, self.state_digest, self.replica),
        )


@record(frozen=True)
class PreparedProof:
    """One prepared batch carried in a view-change message."""

    seq: int
    view: int
    digest: bytes
    batch: Tuple[ClientRequest, ...]

    def wire_size(self) -> int:
        return 52 + sum(r.wire_size() for r in self.batch)


@record(frozen=True)
class PbftViewChange:
    """<VIEW-CHANGE, v+1, n, P, i> (signed)."""

    new_view: int
    last_stable: int
    prepared: Tuple[PreparedProof, ...]
    replica: int
    signature: Optional[bytes] = None

    def signed_body(self) -> bytes:
        return fields_digest(
            b"pbft-view-change",
            self.new_view,
            self.last_stable,
            self.replica,
            *[p.digest for p in self.prepared],
        )

    def wire_size(self) -> int:
        return 80 + sum(p.wire_size() for p in self.prepared)


@record(frozen=True)
class PbftNewView:
    """<NEW-VIEW, v+1, V, O> (signed)."""

    new_view: int
    view_changes: Tuple[PbftViewChange, ...]
    pre_prepares: Tuple[PrePrepare, ...]
    signature: Optional[bytes] = None

    def signed_body(self) -> bytes:
        return fields_digest(
            b"pbft-new-view",
            self.new_view,
            len(self.view_changes),
            *[p.digest for p in self.pre_prepares],
        )

    def wire_size(self) -> int:
        return 64 + sum(v.wire_size() for v in self.view_changes) + sum(
            p.wire_size() for p in self.pre_prepares
        )


# ---------------------------------------------------------------------------
# Adversary hooks: an equivocating primary forks the pre-prepare per
# destination; a withholder suppresses prepares and commits.
# ---------------------------------------------------------------------------


def _fork_pre_prepare(replica, dst: int, message: PrePrepare) -> Optional[PrePrepare]:
    forged_batch = adversary.conflicting_batch(message.batch)
    if forged_batch is None:
        return None
    forged = PrePrepare(
        message.view, message.seq, batch_digest(forged_batch), forged_batch
    )
    return replace(forged, auth=adversary.self_auth_for(replica, dst, forged.signed_body()))


adversary.register_proposal_mutator(PrePrepare, _fork_pre_prepare)
adversary.register_vote_types(Prepare, Commit)
