"""NeoBFT message formats (§5.3-§5.5, Appendix B).

View identifiers are ``(epoch, leader_num)`` 2-tuples ordered
lexicographically: bumping ``leader_num`` replaces a faulty leader within
an epoch; bumping ``epoch`` retires a faulty aom sequencer. Signed
messages carry a 16-byte signature tag over their ``signed_body()``, and
every receiver checks it against the replica the message names (or the
leader of its view), so any replica can validate third-party evidence
(gap and epoch certificates, view-change bundles).
"""

from __future__ import annotations

import struct
from typing import Any, Optional, Tuple

from repro.aom.messages import OrderingCertificate
from repro.crypto.digests import fields_digest
from repro.protocols import adversary
from repro.records import record

_VIEW_ID = struct.Struct(">qq").pack


@record(frozen=True, order=True)
class ViewId:
    """<epoch-num, leader-num>; lexicographic order = "higher view"."""

    epoch: int
    leader_num: int

    def next_leader(self) -> "ViewId":
        """The view that replaces a faulty leader."""
        return ViewId(self.epoch, self.leader_num + 1)

    def next_epoch(self) -> "ViewId":
        """The view that starts after a sequencer failover."""
        return ViewId(self.epoch + 1, self.leader_num + 1)

    def encode(self) -> bytes:
        return _VIEW_ID(self.epoch, self.leader_num)


@record(frozen=True)
class Query:
    """<QUERY, view-id, log-slot-num> — unsigned by design (§5.4)."""

    view: ViewId
    slot: int


@record(frozen=True)
class QueryReply:
    """<QUERY-REPLY, view-id, log-slot-num, oc> — oc is self-verifying."""

    view: ViewId
    slot: int
    oc: OrderingCertificate


@record(frozen=True)
class GapFind:
    """Leader broadcast: does anyone hold slot's ordering certificate?"""

    view: ViewId
    slot: int
    signature: Optional[bytes] = None

    def signed_body(self) -> bytes:
        return fields_digest(b"gap-find", self.view.encode(), self.slot)


@record(frozen=True)
class GapRecv:
    """Reply: here is the certificate (self-verifying, unsigned)."""

    view: ViewId
    slot: int
    oc: OrderingCertificate


@record(frozen=True)
class GapDrop:
    """Reply: I too saw a drop-notification for this slot (signed)."""

    view: ViewId
    replica: int
    slot: int
    signature: Optional[bytes] = None

    def signed_body(self) -> bytes:
        return fields_digest(b"gap-drop", self.view.encode(), self.replica, self.slot)


@record(frozen=True)
class GapDecision:
    """Leader's proposal: commit the oc, or commit a no-op.

    ``recv_oc`` xor ``drop_evidence`` is set; drop evidence is 2f+1
    distinct GapDrop messages (the drop certificate precursor).
    """

    view: ViewId
    slot: int
    recv_oc: Optional[OrderingCertificate] = None
    drop_evidence: Tuple[GapDrop, ...] = ()
    signature: Optional[bytes] = None

    @property
    def is_drop(self) -> bool:
        return self.recv_oc is None

    def signed_body(self) -> bytes:
        kind = b"drop" if self.is_drop else b"recv"
        return fields_digest(b"gap-decision", self.view.encode(), self.slot, kind)


@record(frozen=True)
class GapPrepare:
    """<GAP-PREPARE, view-id, replica, slot, recv-or-drop> (signed)."""

    view: ViewId
    replica: int
    slot: int
    is_drop: bool
    signature: Optional[bytes] = None

    def signed_body(self) -> bytes:
        return fields_digest(
            b"gap-prepare",
            self.view.encode(),
            self.replica,
            self.slot,
            b"drop" if self.is_drop else b"recv",
        )


@record(frozen=True)
class GapCommit:
    """<GAP-COMMIT, view-id, replica, slot, recv-or-drop> (signed).

    A quorum of 2f+1 of these is a *gap certificate* — carried by state
    sync and view changes as proof a no-op (or oc) committed at the slot.
    """

    view: ViewId
    replica: int
    slot: int
    is_drop: bool
    signature: Optional[bytes] = None

    def signed_body(self) -> bytes:
        return fields_digest(
            b"gap-commit",
            self.view.encode(),
            self.replica,
            self.slot,
            b"drop" if self.is_drop else b"recv",
        )


@record(frozen=True)
class EpochStart:
    """<EPOCH-START, epoch, log-slot-num> (signed); 2f+1 = epoch certificate."""

    epoch: int
    slot: int
    replica: int
    signature: Optional[bytes] = None

    def signed_body(self) -> bytes:
        return fields_digest(b"epoch-start", self.epoch, self.slot, self.replica)


@record(frozen=True)
class EpochCertificate:
    """2f+1 matching EPOCH-STARTs: agreed starting slot of an epoch."""

    epoch: int
    slot: int
    starts: Tuple[EpochStart, ...]

    def wire_size(self) -> int:
        return 16 + 48 * len(self.starts)


@record(frozen=True)
class LogEntrySummary:
    """One log slot as carried inside a view-change message."""

    slot: int
    is_noop: bool
    epoch: int
    digest: bytes
    request: Any = None  # the ClientRequest (needed for re-execution)
    oc: Optional[OrderingCertificate] = None
    gap_cert: Tuple[GapCommit, ...] = ()

    def wire_size(self) -> int:
        return 64 + (48 * len(self.gap_cert))


@record(frozen=True)
class ViewChange:
    """<VIEW-CHANGE, view-id, v', epoch-certs, log> (signed)."""

    view: ViewId  # sender's current view
    new_view: ViewId
    replica: int
    epoch_certs: Tuple[EpochCertificate, ...]
    log: Tuple[LogEntrySummary, ...]
    signature: Optional[bytes] = None

    def signed_body(self) -> bytes:
        return fields_digest(
            b"view-change",
            self.view.encode(),
            self.new_view.encode(),
            self.replica,
            len(self.log),
            *[entry.digest for entry in self.log],
        )

    def wire_size(self) -> int:
        return 64 + sum(e.wire_size() for e in self.log) + sum(
            c.wire_size() for c in self.epoch_certs
        )


@record(frozen=True)
class ViewStart:
    """<VIEW-START, v', view-change-msgs> from the new leader (signed)."""

    new_view: ViewId
    view_changes: Tuple[ViewChange, ...]
    signature: Optional[bytes] = None

    def signed_body(self) -> bytes:
        return fields_digest(b"view-start", self.new_view.encode(), len(self.view_changes))

    def wire_size(self) -> int:
        return 48 + sum(vc.wire_size() for vc in self.view_changes)


@record(frozen=True)
class StateTransferRequest:
    """Fetch log entries [from_slot, to_slot) from a peer.

    Used by a lagging replica whose view-change suffixes do not reach
    back to its own log end (the suffixes start at each sender's sync
    point). Unsigned: replies carry self-verifying evidence.
    """

    epoch: int
    from_slot: int
    to_slot: int


@record(frozen=True)
class StateTransferReply:
    """Entries answering a :class:`StateTransferRequest`."""

    epoch: int
    from_slot: int
    entries: Tuple[LogEntrySummary, ...]

    def wire_size(self) -> int:
        return 20 + sum(e.wire_size() for e in self.entries)


@record(frozen=True)
class SyncMessage:
    """<SYNC, view-id, log-slot-num, drops> — B.2.

    ``tag`` is the sender's MAC to the receiver over ``signed_body()``.
    """

    view: ViewId
    replica: int
    slot: int
    drops: Tuple[Tuple[int, Tuple[GapCommit, ...]], ...]  # (slot, gap cert)
    tag: Optional[bytes] = None

    def signed_body(self) -> bytes:
        return fields_digest(
            b"sync",
            self.view.encode(),
            self.replica,
            self.slot,
            len(self.drops),
        )

    def wire_size(self) -> int:
        return 48 + sum(16 + 48 * len(cert) for _, cert in self.drops)


# Adversary hook: a withholder suppresses gap-agreement votes.
adversary.register_vote_types(GapPrepare, GapCommit, GapRecv, GapDrop)
