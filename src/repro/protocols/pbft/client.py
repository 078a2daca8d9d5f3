"""The PBFT client: sends to the primary, accepts f+1 matching replies."""

from __future__ import annotations

from repro.protocols.base import BaseClient, ReplicaGroup
from repro.protocols.messages import ClientRequest


class PbftClient(BaseClient):
    """Closed-loop PBFT client."""

    PROTO = "pbft"

    def __init__(self, sim, name, group: ReplicaGroup, **kwargs):
        kwargs.setdefault("retry_timeout_ns", 20_000_000)
        super().__init__(sim, name, group, reply_quorum=group.f + 1, **kwargs)
        self._view_guess = 0

    def transmit_request(self, request: ClientRequest, first: bool) -> None:
        if first:
            self.send(self.group.leader_addr(self._view_guess), request)
        else:
            # Retry: broadcast so a live replica forwards to the primary
            # (and suspicion timers start if the primary is faulty).
            for addr in self.group.replica_addrs:
                self.send(addr, request)

    def _on_reply(self, src: int, reply) -> None:  # track the active view
        super()._on_reply(src, reply)
        if reply.view > self._view_guess:
            self._view_guess = reply.view
