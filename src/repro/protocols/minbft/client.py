"""The MinBFT client: f+1 matching replies from the 2f+1 group."""

from __future__ import annotations

from repro.protocols.base import BaseClient, ReplicaGroup
from repro.protocols.messages import ClientRequest


class MinBftClient(BaseClient):
    """Closed-loop MinBFT client."""

    PROTO = "minbft"

    def __init__(self, sim, name, group: ReplicaGroup, **kwargs):
        kwargs.setdefault("retry_timeout_ns", 20_000_000)
        super().__init__(sim, name, group, reply_quorum=group.f + 1, **kwargs)

    def transmit_request(self, request: ClientRequest, first: bool) -> None:
        if first:
            self.send(self.group.leader_addr(0), request)
        else:
            for addr in self.group.replica_addrs:
                self.send(addr, request)
