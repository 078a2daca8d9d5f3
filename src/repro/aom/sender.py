"""libAOM, sender half (§4.1).

The sender library computes the collision-resistant payload digest,
builds the custom header skeleton (group ID + digest; the switch fills
epoch, sequence, and the authenticator), and transmits to the group
address. Senders never learn receiver identities — only the group address.
"""

from __future__ import annotations

from typing import Any

from repro.crypto.backend import CryptoContext
from repro.net.packet import GroupAddress, wire_size_of
from repro.records import record


@record
class AomSendDatagram:
    """What leaves the sender's NIC toward the group address."""

    group_id: int
    digest: bytes
    payload: Any

    def wire_size(self) -> int:
        return 8 + len(self.digest) + wire_size_of(self.payload)


class AomSenderLib:
    """Per-sender aom send path, embedded in a host endpoint."""

    def __init__(self, host, group_id: int, crypto: CryptoContext):
        self.host = host
        self.group_id = group_id
        self.crypto = crypto
        self.group_address = GroupAddress(group_id)
        self._counters = host.sim.metrics.scope("aom.", node=host.name)

    def multicast(self, payload: Any, canonical_bytes: bytes) -> bytes:
        """Send ``payload`` to the group; returns the payload digest.

        ``canonical_bytes`` is the serialized form the digest covers (the
        caller knows how its payload serializes; the digest must be stable
        across replicas so they can validate digest-payload binding).
        """
        digest = self.crypto.digest(canonical_bytes)
        datagram = AomSendDatagram(
            group_id=self.group_id, digest=digest, payload=payload
        )
        self._counters.add("multicasts")
        self.host.send(self.group_address, datagram)
        return digest
