"""HotStuff wire formats.

Threshold signatures are modeled through the cost model: a share is a
small authenticated blob (cost ``threshold_share_sign_ns``), the leader
combines n-f shares into a quorum certificate
(``threshold_combine_ns``), and replicas validate QCs
(``threshold_verify_ns``). Authenticity inside the simulation rides on
the same key-authority mechanics as other signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Tuple

from repro.crypto.backend import Signature
from repro.crypto.digests import fields_digest
from repro.protocols.messages import ClientRequest


class Phase(IntEnum):
    """HotStuff's three vote rounds."""

    PREPARE = 1
    PRE_COMMIT = 2
    COMMIT = 3


@dataclass(frozen=True)
class QuorumCert:
    """A combined threshold signature over (view, seq, phase, digest)."""

    view: int
    seq: int
    phase: int
    digest: bytes
    combined: Signature

    def body(self) -> bytes:
        return qc_body(self.view, self.seq, self.phase, self.digest)


def qc_body(view: int, seq: int, phase: int, digest: bytes) -> bytes:
    """Canonical bytes a phase's shares/QC cover."""
    return fields_digest(b"hotstuff-qc", view, seq, phase, digest)


@dataclass(frozen=True)
class Proposal:
    """Leader's phase message: batch (prepare) or QC justification."""

    view: int
    seq: int
    phase: int
    digest: bytes
    batch: Tuple[ClientRequest, ...] = ()
    justify: Optional[QuorumCert] = None

    def wire_size(self) -> int:
        return 56 + sum(r.wire_size() for r in self.batch) + (96 if self.justify else 0)


@dataclass(frozen=True)
class Vote:
    """A replica's threshold-signature share for one phase."""

    view: int
    seq: int
    phase: int
    digest: bytes
    replica: int
    share: Signature

    def wire_size(self) -> int:
        return 56 + self.share.wire_size()


@dataclass(frozen=True)
class Decide:
    """Leader's final decide carrying the commit QC."""

    view: int
    seq: int
    digest: bytes
    justify: QuorumCert

    def wire_size(self) -> int:
        return 48 + 96
