"""Single-server request/reply with client MACs (no replication)."""

from __future__ import annotations

from repro.protocols.base import BaseClient, BaseReplica, ReplicaGroup
from repro.protocols.messages import ClientReply, ClientRequest


class UnreplicatedServer(BaseReplica):
    """Executes requests immediately; there is nothing to agree on."""

    PROTO = "unreplicated"

    def __init__(self, sim, group: ReplicaGroup, app, crypto, pairwise, **kwargs):
        super().__init__(sim, 0, group, app, crypto, pairwise, **kwargs)

    def on_message(self, src: int, message: object) -> None:
        if not isinstance(message, ClientRequest):
            return
        cached = self.is_duplicate(message)
        if cached is not None:
            self.send(message.client_id, cached)
            return
        if not self.check_request_auth(message):
            self.metrics.add("bad_auth")
            return
        self.remember_request(message)
        result, _ = self.execute_op(message.op, request=message)
        self.ops_executed += 1
        reply = ClientReply(
            view=0,
            replica=self.address,
            request_id=message.request_id,
            result=result,
        )
        self.reply_to_client(message.client_id, reply)


class UnreplicatedClient(BaseClient):
    """Sends to the single server; accepts its first valid reply."""

    PROTO = "unreplicated"

    def __init__(self, sim, name, group, crypto, pairwise, **kwargs):
        super().__init__(sim, name, group, crypto, pairwise, reply_quorum=1, **kwargs)

    def transmit_request(self, request: ClientRequest, first: bool) -> None:
        self.send(self.group.replica_addrs[0], request)
