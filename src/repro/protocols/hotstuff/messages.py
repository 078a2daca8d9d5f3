"""HotStuff wire formats.

Threshold signatures are modeled through the cost model: a share is a
small authenticated blob (cost ``threshold_share_sign_ns``), the leader
combines n-f shares into a quorum certificate
(``threshold_combine_ns``), and replicas validate QCs
(``threshold_verify_ns``). Authenticity inside the simulation rides on
the same key-authority mechanics as other signatures.
"""

from __future__ import annotations

from dataclasses import replace
from enum import IntEnum
from typing import Optional, Tuple

from repro.crypto.digests import fields_digest
from repro.protocols import adversary
from repro.protocols.messages import ClientRequest, batch_digest
from repro.records import record


class Phase(IntEnum):
    """HotStuff's three vote rounds."""

    PREPARE = 1
    PRE_COMMIT = 2
    COMMIT = 3


@record(frozen=True)
class QuorumCert:
    """A combined threshold signature over (view, seq, phase, digest)."""

    view: int
    seq: int
    phase: int
    digest: bytes
    combined: bytes  # signed by the leader of ``view``

    def body(self) -> bytes:
        return qc_body(self.view, self.seq, self.phase, self.digest)


def qc_body(view: int, seq: int, phase: int, digest: bytes) -> bytes:
    """Canonical bytes a phase's shares/QC cover."""
    return fields_digest(b"hotstuff-qc", view, seq, phase, digest)


@record(frozen=True)
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


@record(frozen=True)
class Vote:
    """A replica's threshold-signature share for one phase."""

    view: int
    seq: int
    phase: int
    digest: bytes
    replica: int
    share: bytes

    def wire_size(self) -> int:
        return 56 + len(self.share)


@record(frozen=True)
class Decide:
    """Leader's final decide carrying the commit QC."""

    view: int
    seq: int
    digest: bytes
    justify: QuorumCert

    def wire_size(self) -> int:
        return 48 + 96


# ---------------------------------------------------------------------------
# Adversary hooks: an equivocating leader forks the prepare-phase proposal
# (no MAC vector to rebuild); a withholder suppresses votes.
# ---------------------------------------------------------------------------


def _fork_proposal(replica, dst: int, message: Proposal) -> Optional[Proposal]:
    if message.phase != Phase.PREPARE:
        return None  # later phases carry QCs the adversary cannot forge
    forged_batch = adversary.conflicting_batch(message.batch)
    if forged_batch is None:
        return None
    return replace(message, digest=batch_digest(forged_batch), batch=forged_batch)


adversary.register_proposal_mutator(Proposal, _fork_proposal)
adversary.register_vote_types(Vote)
