"""Base classes shared by every protocol implementation.

:class:`ReplicaGroup` describes the replication group (n, f, addresses,
view->leader mapping). :class:`BaseReplica` and :class:`BaseClient` carry
the plumbing every protocol needs — client-request authentication,
reply MACs, at-most-once caching, reply quorum collection, retransmission
— so each protocol module implements only its message flow.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Optional, Tuple

from repro.crypto.backend import CryptoContext
from repro.crypto.costmodel import CostModel
from repro.crypto.digests import remember
from repro.net.endpoint import Endpoint
from repro.protocols.log import EntryKind, LogEntry, ReplicaLog
from repro.protocols.messages import ClientReply, ClientRequest, reply_body, request_body
from repro.records import record
from repro.sim.clock import ms
from repro.sim.engine import Simulator


@record(frozen=True)
class ReplicaGroup:
    """Static membership of one replication group."""

    replica_addrs: Tuple[int, ...]
    f: int

    @property
    def n(self) -> int:
        """Total replica count."""
        return len(self.replica_addrs)

    def leader_index(self, view: int) -> int:
        """Round-robin leader for a view number."""
        return view % self.n

    def leader_addr(self, view: int) -> int:
        """Address of the view's leader."""
        return self.replica_addrs[self.leader_index(view)]

    @property
    def quorum(self) -> int:
        """2f+1: the intersection quorum."""
        return 2 * self.f + 1

    @property
    def fast_quorum(self) -> int:
        """3f+1: Zyzzyva's all-replicas fast path."""
        return 3 * self.f + 1

    def validate(self, min_factor: int) -> None:
        """Check n >= min_factor*f + 1 (the family row's replica factor)."""
        if self.n < min_factor * self.f + 1:
            raise ValueError(
                f"{self.n} replicas cannot tolerate f={self.f} "
                f"(need {min_factor}f+1)"
            )


class BaseReplica(Endpoint):
    """Common replica plumbing."""

    #: Protocol label published on replica-side metrics; subclasses override.
    PROTO = "base"

    def __init__(
        self,
        sim: Simulator,
        replica_id: int,
        group: ReplicaGroup,
        app,
        cost_model: Optional[CostModel] = None,
    ):
        super().__init__(sim, f"replica-{replica_id}", cost_model=cost_model)
        self.replica_id = replica_id
        self.group = group
        self.app = app
        # Membership is static, so every MAC vector this replica makes
        # shares this one tuple as its ids.
        me = group.replica_addrs[replica_id]
        self._peers = tuple([addr for addr in group.replica_addrs if addr != me])
        self.crypto: Optional[CryptoContext] = None  # bound by the cluster builder
        self.view = 0
        self.log = ReplicaLog()
        # At-most-once: latest (request_id, reply) per client.
        self.client_table: Dict[int, Tuple[int, Optional[ClientReply]]] = {}
        # Requests admitted to ordering but not yet executed (leader-side
        # duplicate suppression against client retries).
        self._inflight_requests: set = set()

    def _event_counters(self):
        """``replica.*{node, proto}``: protocol events (``gaps_started``,
        ``views_entered``, ...), fault events (``crash_dropped``, ...) and
        ``ops_executed``."""
        return self.sim.metrics.scope("replica.", node=self.name, proto=self.PROTO)

    # ------------------------------------------------------------- identity

    @property
    def is_leader(self) -> bool:
        """Whether this replica leads the current view."""
        return self.group.leader_index(self.view) == self.replica_id

    @property
    def leader_addr(self) -> int:
        """Current view's leader address."""
        return self.group.leader_addr(self.view)

    def peers(self) -> Tuple[int, ...]:
        """Addresses of the other replicas."""
        return self._peers

    def broadcast(self, message: object) -> None:
        """Send to all other replicas."""
        for addr in self.peers():
            self.send(addr, message)

    def mac_broadcast(self, cls, body: bytes, *fields):
        """Send every peer one ``cls(*fields, auth)``; return it.

        ``auth`` is a MAC vector over ``body``, the message's
        ``signed_body()``, with one entry per peer. The message is built
        once and carries ``body`` as its memo, so no receiver digests it
        again.
        """
        peers = self.peers()
        message = cls(*fields, self.crypto.mac_vector(peers, body))
        remember(message, "_signed_body", body)
        for addr in peers:
            self.send(addr, message)
        return message

    def signed(self, message):
        """The copy of ``message`` whose ``signature`` covers its
        ``signed_body()`` (charged)."""
        return replace(message, signature=self.crypto.sign(message.signed_body()))

    def certified(self, messages, fits: Callable[[object], bool]) -> bool:
        """Whether ``messages`` form a quorum certificate.

        It takes at least a quorum of messages from distinct group
        members, each passing ``fits`` and each signed by the replica it
        names (``message.replica``). The messages are checked in order and
        the first failure ends the check, so a bad certificate is charged
        only the verifies before it.
        """
        if len(messages) < self.group.quorum:
            return False
        members = self.group.replica_addrs
        seen = set()
        for message in messages:
            signer = message.replica
            if signer in seen or signer not in members or not fits(message):
                return False
            if not self.crypto.verify(signer, message.signed_body(), message.signature):
                return False
            seen.add(signer)
        return True

    # ------------------------------------------------------ client plumbing

    def on_client_request(self, request: ClientRequest) -> None:
        """Screen a client request, then batch it (leader) or forward it."""
        if self.screen_request(request):
            self.route_request(request)

    def screen_request(self, request: ClientRequest) -> bool:
        """True for an authentic request newer than the client's last.

        A retry of the last executed request gets its cached reply
        resent; older or in-flight duplicates are dropped.
        """
        if not self.check_request_auth(request):
            self.metrics.add("bad_auth")
            return False
        seen = self.client_table.get(request.client_id)
        if seen is not None and seen[0] >= request.request_id:
            if seen[0] == request.request_id and seen[1] is not None:
                self.send(request.client_id, seen[1])
            return False
        return True

    def route_request(self, request: ClientRequest) -> None:
        """The leader batches a fresh request (into the family's ``batcher``);
        a backup forwards it."""
        if self.is_leader:
            if self.admit_once(request):
                self.batcher.add(request)
        else:
            self.forward_request(request)

    def forward_request(self, request: ClientRequest) -> None:
        """Send a request on to the current leader."""
        self.send(self.leader_addr, request)

    def check_request_auth(self, request: ClientRequest) -> bool:
        """Verify the client's MAC-vector entry (charged)."""
        return self.crypto.verify_vector_from(
            request.client_id, request.canonical(), request.auth
        )

    def admit_once(self, request: ClientRequest) -> bool:
        """True the first time a not-yet-executed request is admitted.

        Guards leaders against batching the same retried request twice
        while it is still working through the agreement pipeline.
        """
        key = request.key()
        if key in self._inflight_requests:
            return False
        self._inflight_requests.add(key)
        return True

    def settle_request(self, request: ClientRequest) -> None:
        """Drop the in-flight marker once a request reaches execution."""
        self._inflight_requests.discard(request.key())

    def execution_dedupe(self, request: ClientRequest) -> Tuple[bool, Optional[ClientReply]]:
        """At-most-once check at execution time.

        Returns (should_execute, cached_reply). Execution state is
        identical across correct replicas (they execute the same log), so
        this decision is deterministic: re-ordered duplicates of an
        already-executed request occupy their slot but do not mutate state.
        """
        seen = self.client_table.get(request.client_id)
        if seen is None:
            return True, None
        last_id, reply = seen
        if request.request_id > last_id:
            return True, None
        if request.request_id == last_id:
            return False, reply
        return False, None

    def reply_to_client(
        self,
        client_id: int,
        view: int,
        request_id: int,
        result: bytes,
        slot: int = 0,
        log_hash: bytes = b"",
        extra=None,
    ) -> None:
        """Build, MAC and send this replica's reply; caches it for duplicate
        retransmission.

        The reply carries the body its MAC covers, so the client checks
        the tag without digesting the reply again.
        """
        body = reply_body(view, self.address, request_id, result, slot, log_hash)
        reply = ClientReply(
            view, self.address, request_id, result, slot, log_hash,
            self.crypto.mac_to(client_id, body), extra,
        )
        remember(reply, "_signed_body", body)
        seen = self.client_table.get(client_id)
        if seen is not None and seen[0] == request_id:
            self.client_table[client_id] = (request_id, reply)
        self.send(client_id, reply)

    # ------------------------------------------------------------ execution

    def commit_batch(self, digest: bytes, batch) -> int:
        """Log one agreed batch, execute its requests and commit it.

        Returns the batch's slot. The append charges no simulated time.
        """
        slot = self.log.append(LogEntry(kind=EntryKind.REQUEST, digest=digest))
        for request in batch:
            self.execute_request(request)
        self.log.mark_executed(slot, b"", None)
        self.log.mark_committed_up_to(slot)
        return slot

    def execute_request(self, request: ClientRequest, **reply_fields) -> bool:
        """Settle, dedupe, execute and answer one ordered request.

        A duplicate of an executed request only gets its cached reply
        resent. ``reply_fields`` fill the reply's protocol-specific
        fields. Returns whether the op ran.
        """
        self.settle_request(request)
        should_execute, cached = self.execution_dedupe(request)
        if not should_execute:
            if cached is not None:
                self.send(request.client_id, cached)
            return False
        result, _ = self.execute_op(request.op, request=request)
        self.client_table[request.client_id] = (request.request_id, None)
        self.reply_to_client(
            request.client_id, self.view, request.request_id, result, **reply_fields
        )
        return True

    # ------------------------------------------------------------ app hooks

    def execute_op(
        self, op: bytes, request: Optional[ClientRequest] = None
    ) -> Tuple[bytes, object]:
        """Run one operation on the app, charging its modeled cost.

        Pass the originating ``request`` when available so the execution
        interval lands on that request's span tree.
        """
        cost = self.app.exec_cost_ns(op, self.cost)
        self.metrics.add("ops_executed")
        tel = self.sim.telemetry
        if tel is not None:
            self.sim.metrics.observe("replica.exec_cost_ns", cost, proto=self.PROTO)
            if request is not None:
                # The handler's charged work so far positions this op's
                # slice inside the CPU completion interval.
                start = self.sim.now + self._charged
                tel.spans.record(
                    (request.client_id, request.request_id),
                    "replica.execute", "crypto", self.name, start, start + cost,
                )
        self.charge(cost)
        return self.app.execute_with_undo(op)


class BaseClient(Endpoint):
    """Closed-loop client with reply-quorum collection and retransmission.

    This is the client of every family that sends to a leader: a fresh
    request goes to the leader of :attr:`view`, the newest view named by
    a verified reply; a retry goes to every replica; ``reply_quorum``
    matching replies (f+1 unless a subclass says otherwise) complete it.
    ``proto`` labels its client-side metrics (the builder passes the
    family's replica label).

    Retransmission uses exponential backoff with seeded jitter: the first
    retry fires after ``retry_timeout_ns``, each consecutive retry of the
    same request multiplies the timeout by ``retry_backoff`` up to
    ``retry_timeout_max_ns``, and every arming adds a jitter draw from a
    per-client random stream (deterministic under the simulator seed).
    This keeps a fleet of stalled clients from flooding the fabric in
    lock-step during a long outage. Optionally ``max_request_retries``
    bounds the attempts, after which the request is *aborted* — counted
    in :attr:`aborted`, reported through :attr:`on_abort` — and the
    closed loop moves on instead of hammering a dead quorum forever.
    """

    def __init__(
        self,
        sim: Simulator,
        client_id_name: str,
        group: ReplicaGroup,
        proto: str = "base",
        reply_quorum: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
        retry_timeout_ns: int = ms(5),
        retry_backoff: float = 2.0,
        retry_timeout_max_ns: Optional[int] = None,
        retry_jitter: float = 0.1,
        max_request_retries: Optional[int] = None,
    ):
        super().__init__(sim, client_id_name, cost_model=cost_model)
        if retry_backoff < 1.0:
            raise ValueError(f"retry_backoff must be >= 1.0, got {retry_backoff!r}")
        if not 0.0 <= retry_jitter <= 1.0:
            raise ValueError(f"retry_jitter must be in [0, 1], got {retry_jitter!r}")
        if max_request_retries is not None and max_request_retries < 1:
            raise ValueError(
                f"max_request_retries must be >= 1 or None, got {max_request_retries!r}"
            )
        self.group = group
        self.crypto: Optional[CryptoContext] = None  # bound by the cluster builder
        self.proto = proto
        self.reply_quorum = group.f + 1 if reply_quorum is None else reply_quorum
        self.view = 0
        self.retry_timeout_ns = retry_timeout_ns
        self.retry_backoff = retry_backoff
        self.retry_timeout_max_ns = (
            retry_timeout_max_ns if retry_timeout_max_ns is not None else 4 * retry_timeout_ns
        )
        self.retry_jitter = retry_jitter
        self.max_request_retries = max_request_retries
        self._retry_rng = sim.streams.get(f"client.retry/{client_id_name}")
        self._retry_attempt = 0
        self.next_request_id = 1
        self.inflight: Optional[ClientRequest] = None
        self.inflight_since = 0
        self._replies: Dict[Tuple, Dict[int, ClientReply]] = {}
        self._retry_timer = None
        self.completions = 0
        self.retries = 0
        self.aborted = 0
        self._root_span = None  # open telemetry span of the inflight request
        self._first_reply_ns: Optional[int] = None
        # Harness hooks.
        self.on_complete: Optional[Callable[[int, int, bytes], None]] = None
        self.on_abort: Optional[Callable[[int], None]] = None
        self.next_op: Optional[Callable[[], Optional[bytes]]] = None

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Begin the closed loop (needs ``next_op`` installed)."""
        self.execute_now(self._issue_next)

    def _issue_next(self) -> None:
        if self.next_op is None:
            return
        op = self.next_op()
        if op is None:
            return  # workload exhausted
        self.submit(op)

    def submit(self, op: bytes) -> int:
        """Send one operation; returns its request id."""
        if self.inflight is not None:
            raise RuntimeError(f"{self.name}: one outstanding request at a time")
        request_id = self.next_request_id
        self.next_request_id += 1
        body = request_body(self.address, request_id, op)
        request = ClientRequest(
            self.address, request_id, op,
            self.crypto.mac_vector(self.group.replica_addrs, body),
        )
        remember(request, "_canonical", body)
        self.inflight = request
        self.inflight_since = self.sim.now
        self._replies.clear()
        self._retry_attempt = 0
        self._first_reply_ns = None
        tel = self.sim.telemetry
        if tel is not None:
            self._root_span = tel.spans.begin(
                (self.address, request.request_id),
                "request", "client", self.name, self.sim.now,
            )
        self.transmit_request(request, first=True)
        self._arm_retry()
        return request.request_id

    def _current_retry_timeout(self) -> int:
        """Backed-off timeout for the next retry, with seeded jitter."""
        timeout = min(
            self.retry_timeout_ns * (self.retry_backoff ** self._retry_attempt),
            float(self.retry_timeout_max_ns),
        )
        span = int(timeout * self.retry_jitter)
        if span > 0:
            timeout += self._retry_rng.randrange(span)
        return int(timeout)

    def _arm_retry(self) -> None:
        if self._retry_timer is not None:
            self._retry_timer.cancel()
        self._retry_timer = self.set_timer(self._current_retry_timeout(), self._retry)

    def _retry(self) -> None:
        self._retry_timer = None
        if self.inflight is None:
            return
        if (
            self.max_request_retries is not None
            and self._retry_attempt >= self.max_request_retries
        ):
            self._abort_inflight()
            return
        self.retries += 1
        self._retry_attempt += 1
        self.transmit_request(self.inflight, first=False)
        self._arm_retry()

    def _abort_inflight(self) -> None:
        """Give up on the in-flight request after exhausting its retries."""
        request = self.inflight
        self.inflight = None
        self._replies.clear()
        self._retry_attempt = 0
        self.aborted += 1
        tel = self.sim.telemetry
        if tel is not None:
            tel.spans.finish(self._root_span, self.sim.now, aborted=True)
        self._root_span = None
        self._first_reply_ns = None
        if self.on_abort is not None:
            self.on_abort(request.request_id)
        self._issue_next()

    # ------------------------------------------------------------ transport

    def transmit_request(self, request: ClientRequest, first: bool) -> None:
        """Send a fresh request to the view's leader, a retry to every
        replica (a live one forwards it to the leader, and a faulty
        leader gets suspected)."""
        if first:
            self.send(self.group.leader_addr(self.view), request)
        else:
            for addr in self.group.replica_addrs:
                self.send(addr, request)

    # -------------------------------------------------------------- replies

    def on_message(self, src: int, message: object) -> None:
        if isinstance(message, ClientReply):
            self._on_reply(src, message)

    def verify_reply(self, src: int, reply: ClientReply) -> bool:
        """Check the replica's MAC on a reply (charged)."""
        return self.crypto.verify_mac_from(src, reply.signed_body(), reply.tag)

    def _on_reply(self, src: int, reply: ClientReply) -> None:
        if self.inflight is None or reply.request_id != self.inflight.request_id:
            return
        if src not in self.group.replica_addrs:
            return
        if not self.verify_reply(src, reply):
            return
        if self._first_reply_ns is None:
            self._first_reply_ns = self.sim.now
        bucket = self._replies.setdefault(reply.match_key(), {})
        bucket[src] = reply
        if len(bucket) >= self.reply_quorum:
            self.complete(reply.result)
        # Only after the reply is processed: a completion sends the next
        # request to the view known before this reply.
        if reply.view > self.view:
            self.view = reply.view

    def complete(self, result: bytes) -> None:
        """Finish the in-flight request and continue the closed loop."""
        if self.inflight is None:
            return
        request_id = self.inflight.request_id
        latency = self.sim.now - self.inflight_since
        self.inflight = None
        self._replies.clear()
        self._retry_attempt = 0
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None
        self.completions += 1
        tel = self.sim.telemetry
        if tel is not None:
            self.sim.metrics.observe("client.request_latency_ns", latency, proto=self.proto)
            trace = (self.address, request_id)
            if self._first_reply_ns is not None and self.sim.now > self._first_reply_ns:
                # From the first accepted reply until quorum: the tail
                # of the reply collection the client is waiting on.
                tel.spans.record(
                    trace, "client.quorum_wait", "quorum", self.name,
                    self._first_reply_ns, self.sim.now,
                )
            tel.spans.finish(self._root_span, self.sim.now)
        self._root_span = None
        self._first_reply_ns = None
        if self.on_complete is not None:
            self.on_complete(request_id, latency, result)
        self._issue_next()
