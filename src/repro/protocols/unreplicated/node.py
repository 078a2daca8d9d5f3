"""Single-server request/reply with client MACs (no replication)."""

from __future__ import annotations

from repro.protocols.base import BaseClient, BaseReplica, ReplicaGroup
from repro.protocols.messages import ClientRequest


class UnreplicatedServer(BaseReplica):
    """Executes requests immediately; there is nothing to agree on."""

    PROTO = "unreplicated"

    def __init__(self, sim, group: ReplicaGroup, app, crypto, pairwise, **kwargs):
        super().__init__(sim, 0, group, app, crypto, pairwise, **kwargs)

    def on_message(self, src: int, message: object) -> None:
        if isinstance(message, ClientRequest) and self.screen_request(message):
            self.execute_request(message)


class UnreplicatedClient(BaseClient):
    """Sends to the single server; accepts its first valid reply."""

    PROTO = "unreplicated"

    def __init__(self, sim, name, group, crypto, pairwise, **kwargs):
        super().__init__(sim, name, group, crypto, pairwise, reply_quorum=1, **kwargs)

    def transmit_request(self, request: ClientRequest, first: bool) -> None:
        self.send(self.group.replica_addrs[0], request)
