"""aom wire formats and certificates.

The custom header (§4.1) follows the UDP header and carries: group ID,
sequence number, epoch number, the sender's payload digest, and the
authenticator the switch fills in (an HMAC vector chunk for aom-hm, a
hash-chain token with an optional signature for aom-pk).

An :class:`OrderingCertificate` is what the receiver library delivers to
the application: the message plus everything another receiver would need
to independently verify its authenticity and position — the transferable
authentication property NeoBFT's gap and view-change protocols rely on.
"""

from __future__ import annotations

import struct
from enum import Enum
from typing import Any, Optional, Tuple

from repro.crypto.digests import fields_digest
from repro.crypto.hmacvec import HmacVector
from repro.records import record
from repro.switchfab.fpga import ChainedToken


class AuthVariant(str, Enum):
    """Which authentication engine a group's sequencer runs."""

    HMAC = "hm"
    PUBKEY = "pk"


_SEQUENCE_EPOCH = struct.Struct(">qq").pack

#: Switch signing identities sit above every host address.
SWITCH_IDENTITY_BASE = 1_000_000


def switch_identity(group_id: int, epoch: int) -> int:
    """The signing identity of a group's sequencer switch in ``epoch``:
    what it signs aom-pk tokens as, and what receivers verify them against."""
    return SWITCH_IDENTITY_BASE + group_id * 1_000 + epoch


def header_digest(group_id: int, epoch: int, sequence: int, digest: bytes, prev: bytes) -> bytes:
    """D_i: the per-packet content digest the pk hash chain links (§4.4).

    Covers epoch, sequence, payload digest, and (for pk tokens) the
    previous packet's digest, so a signature over D_i transitively
    authenticates the entire unsigned run before it.
    """
    return fields_digest(group_id, epoch, sequence, digest, prev)


def auth_input(digest: bytes, sequence: int, epoch: int) -> bytes:
    """The bytes the switch authenticates: digest || sequence (§4.1).

    The epoch follows, so a tag from one sequencer epoch never verifies
    in another.
    """
    return digest + _SEQUENCE_EPOCH(sequence, epoch)


class NetworkFaultModel(str, Enum):
    """§3.1's dual fault model for the network infrastructure."""

    CRASH = "crash"  # hybrid model: trust the network not to equivocate
    BYZANTINE = "byzantine"  # tolerate equivocating sequencers via confirms


@record(frozen=True)
class AomConfig:
    """Static configuration of one aom group."""

    group_id: int
    variant: AuthVariant = AuthVariant.HMAC
    network_fault_model: NetworkFaultModel = NetworkFaultModel.CRASH
    confirm_fault_bound: int = 1  # f for the 2f+1 confirm quorum (BN mode)


@record
class AomPacket:
    """One datagram as multicast by the sequencer switch to one receiver."""

    group_id: int
    epoch: int
    sequence: int
    digest: bytes  # sender-computed payload digest
    payload: Any  # opaque application message
    sender: int  # original sender's host address
    auth: Any  # PartialVector (hm) or ChainedToken (pk)

    def header_digest(self) -> bytes:
        """D_i of this packet; see :func:`header_digest`."""
        prev = self.auth.prev_digest if isinstance(self.auth, ChainedToken) else b""
        return header_digest(self.group_id, self.epoch, self.sequence, self.digest, prev)

    def auth_input(self) -> bytes:
        """The bytes the switch authenticates; see :func:`auth_input`."""
        return auth_input(self.digest, self.sequence, self.epoch)


@record(frozen=True)
class Confirm:
    """BN-mode receiver confirmation: <confirm, s, h> authenticated."""

    group_id: int
    epoch: int
    sequence: int
    digest: bytes
    replica: int
    auth: Any  # HmacVector over pairwise keys

    def signed_body(self) -> bytes:
        """Canonical bytes the authenticator covers."""
        return fields_digest(
            b"confirm", self.group_id, self.epoch, self.sequence, self.digest, self.replica
        )


@record(frozen=True)
class ChainLink:
    """One intermediate packet's header fields inside a :class:`PkProof`."""

    sequence: int
    payload_digest: bytes
    prev_digest: bytes


@record
class PkProof:
    """Transferable proof for a pk-authenticated packet.

    ``links`` describe packets with sequence numbers strictly greater than
    the certified packet, up to and including the signed packet whose
    ``signature`` covers the chain head. An empty ``links`` tuple means
    the certified packet itself was signed.
    """

    signature: bytes
    links: Tuple[ChainLink, ...] = ()

    def wire_size(self) -> int:
        return len(self.signature) + sum(8 + 64 for _ in self.links)


@record
class OrderingCertificate:
    """What aom delivers: a message plus its verifiable ordering evidence."""

    group_id: int
    epoch: int
    sequence: int
    digest: bytes
    payload: Any
    sender: int
    variant: AuthVariant
    hm_vector: Optional[HmacVector] = None
    pk_prev_digest: bytes = b""
    pk_proof: Optional[PkProof] = None
    confirms: Tuple[Confirm, ...] = ()

    def auth_input(self) -> bytes:
        """Same input the switch authenticated for this sequence number."""
        return auth_input(self.digest, self.sequence, self.epoch)

    def header_digest(self) -> bytes:
        """D_i of the certified packet (recomputed from certificate fields)."""
        prev = self.pk_prev_digest if self.variant == AuthVariant.PUBKEY else b""
        return header_digest(self.group_id, self.epoch, self.sequence, self.digest, prev)

    def wire_size(self) -> int:
        size = 8 * 4 + len(self.digest) + 64  # header fields + payload est.
        if self.hm_vector is not None:
            size += self.hm_vector.wire_size()
        if self.pk_proof is not None:
            size += self.pk_proof.wire_size()
        size += sum(48 for _ in self.confirms)
        return size


@record(frozen=True)
class DropNotification:
    """Delivered in place of a message the network dropped (§3.2)."""

    group_id: int
    epoch: int
    sequence: int


@record(frozen=True)
class EpochConfig:
    """Configuration-service announcement installing a sequencer epoch."""

    group_id: int
    epoch: int
    variant: AuthVariant
    receiver_ids: Tuple[int, ...]
    hmac_key: bytes = b""  # this receiver's key with the switch (hm only)


@record(frozen=True)
class FailoverRequest:
    """Receiver -> configuration service: the sequencer looks faulty."""

    group_id: int
    epoch: int
    replica: int


# Messages the receiver library exchanges on its own behalf.
@record(frozen=True)
class ConfirmBatch:
    """BN mode: confirms are batched to amortize per-message overhead."""

    confirms: Tuple[Confirm, ...]

    def wire_size(self) -> int:
        return 4 + 56 * len(self.confirms)
