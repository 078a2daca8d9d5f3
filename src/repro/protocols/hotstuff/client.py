"""The HotStuff client: sends to the stable leader, f+1 matching replies."""

from __future__ import annotations

from repro.protocols.base import BaseClient, ReplicaGroup
from repro.protocols.messages import ClientRequest


class HotStuffClient(BaseClient):
    """Closed-loop HotStuff client."""

    PROTO = "hotstuff"

    def __init__(self, sim, name, group: ReplicaGroup, **kwargs):
        kwargs.setdefault("retry_timeout_ns", 50_000_000)
        super().__init__(sim, name, group, reply_quorum=group.f + 1, **kwargs)

    def transmit_request(self, request: ClientRequest, first: bool) -> None:
        if first:
            self.send(self.group.leader_addr(0), request)
        else:
            for addr in self.group.replica_addrs:
                self.send(addr, request)
