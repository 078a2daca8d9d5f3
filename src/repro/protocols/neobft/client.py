"""The NeoBFT client (§5.3).

Requests go out through aom multicast; the client accepts a result after
2f+1 replies with matching view, slot, log-hash and result — the proof
that a quorum of replicas speculatively executed the request on matching
logs. On timeout it retries through aom *and* unicasts the request to all
replicas, which arms their sequencer-suspicion timers (§5.5 trigger).
"""

from __future__ import annotations

from repro.aom.sender import AomSenderLib
from repro.protocols.base import BaseClient, ReplicaGroup
from repro.protocols.messages import ClientRequest


class NeoBftClient(BaseClient):
    """Closed-loop NeoBFT client over aom."""

    def __init__(self, sim, name, group: ReplicaGroup, **kwargs):
        super().__init__(sim, name, group, reply_quorum=group.quorum, **kwargs)
        self.aom_sender: AomSenderLib = None  # installed by the builder

    def install_aom(self, sender_lib: AomSenderLib) -> None:
        """Attach the libAOM sender built by the cluster builder."""
        self.aom_sender = sender_lib

    def transmit_request(self, request: ClientRequest, first: bool) -> None:
        self.aom_sender.multicast(request, request.canonical())
        if not first:
            # §5.3: while resending through aom, also unicast to every
            # replica so a faulty sequencer is detected and replaced.
            super().transmit_request(request, first)
