"""Single-server request/reply with client MACs (no replication).

Its client is the shared :class:`~repro.protocols.base.BaseClient`.
"""

from __future__ import annotations

from repro.protocols.base import BaseReplica
from repro.protocols.messages import ClientRequest


class UnreplicatedServer(BaseReplica):
    """Executes requests immediately; there is nothing to agree on."""

    PROTO = "unreplicated"

    def on_message(self, src: int, message: object) -> None:
        if isinstance(message, ClientRequest) and self.screen_request(message):
            self.execute_request(message)
