"""Single-server request/reply with client MACs (no replication)."""

from __future__ import annotations

from repro.protocols.base import BaseClient, BaseReplica
from repro.protocols.messages import ClientRequest


class UnreplicatedServer(BaseReplica):
    """Executes requests immediately; there is nothing to agree on."""

    PROTO = "unreplicated"

    def on_message(self, src: int, message: object) -> None:
        if isinstance(message, ClientRequest) and self.screen_request(message):
            self.execute_request(message)


class UnreplicatedClient(BaseClient):
    """Sends to the single server; accepts its first valid reply."""

    PROTO = "unreplicated"

    def __init__(self, sim, name, group, **kwargs):
        super().__init__(sim, name, group, reply_quorum=1, **kwargs)

    def transmit_request(self, request: ClientRequest, first: bool) -> None:
        self.send(self.group.replica_addrs[0], request)
