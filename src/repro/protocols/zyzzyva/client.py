"""The Zyzzyva client: 3f+1 fast path, 2f+1 + commit certificate fallback."""

from __future__ import annotations

from typing import Dict, Optional

from repro.protocols.base import BaseClient, ReplicaGroup
from repro.protocols.messages import ClientReply, ClientRequest
from repro.protocols.zyzzyva.messages import (
    ClientCommit,
    CommitCertEntry,
    LocalCommit,
    SpecResponseInfo,
)
from repro.sim.clock import us

#: How long a client waits for all 3f+1 speculative responses before it
#: falls back to the 2f+1 commit-certificate path.
SPEC_TIMEOUT_NS = us(80)


class ZyzzyvaClient(BaseClient):
    """Closed-loop Zyzzyva client."""

    def __init__(self, sim, name, group: ReplicaGroup, **kwargs):
        super().__init__(sim, name, group, reply_quorum=group.fast_quorum, **kwargs)
        self._spec_timer = None
        self._local_commits: Dict[int, LocalCommit] = {}
        self._commit_sent = False
        self._commit_result: bytes = b""
        self.slow_path_commits = 0

    def transmit_request(self, request: ClientRequest, first: bool) -> None:
        if first:
            self._commit_sent = False
            self._local_commits = {}
            self._arm_spec_timer(request.request_id)
        super().transmit_request(request, first)

    # ------------------------------------------------------------ fast path

    def _arm_spec_timer(self, request_id: int) -> None:
        if self._spec_timer is not None:
            self._spec_timer.cancel()

        def fire() -> None:
            self._spec_timer = None
            if self.inflight is not None and self.inflight.request_id == request_id:
                self._try_slow_path()

        self._spec_timer = self.set_timer(SPEC_TIMEOUT_NS, fire)

    def complete(self, result: bytes) -> None:
        if self._spec_timer is not None:
            self._spec_timer.cancel()
            self._spec_timer = None
        super().complete(result)

    # ------------------------------------------------------------ slow path

    def _try_slow_path(self) -> None:
        """2f+1 matching speculative responses -> commit certificate."""
        if self.inflight is None or self._commit_sent:
            return
        best_key, best_bucket = None, None
        for key, bucket in self._replies.items():
            if len(bucket) >= self.group.quorum:
                best_key, best_bucket = key, bucket
                break
        if best_bucket is None:
            self._arm_spec_timer(self.inflight.request_id)  # keep waiting
            return
        sample: ClientReply = next(iter(best_bucket.values()))
        info: Optional[SpecResponseInfo] = sample.extra
        if info is None:
            return
        entries = tuple(
            CommitCertEntry(
                replica=rid,
                seq=info.seq,
                history=info.history,
                result_digest=b"",
            )
            for rid in sorted(best_bucket)
        )[: self.group.quorum]
        commit = ClientCommit(
            client_id=self.address,
            request_id=self.inflight.request_id,
            seq=info.seq,
            history=info.history,
            entries=entries,
        )
        self._commit_sent = True
        self._commit_result = sample.result
        self.slow_path_commits += 1
        for addr in self.group.replica_addrs:
            self.send(addr, commit)

    def on_message(self, src: int, message: object) -> None:
        if isinstance(message, LocalCommit):
            self._on_local_commit(src, message)
        else:
            super().on_message(src, message)

    def _on_local_commit(self, src: int, ack: LocalCommit) -> None:
        if self.inflight is None or ack.request_id != self.inflight.request_id:
            return
        if ack.replica != src or src not in self.group.replica_addrs:
            return
        if not self.crypto.verify_mac_from(src, ack.signed_body(), ack.auth_tag):
            return
        self._local_commits[src] = ack
        if len(self._local_commits) >= self.group.quorum and self._commit_sent:
            self.complete(self._commit_result)
