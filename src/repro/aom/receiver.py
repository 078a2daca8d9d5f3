"""libAOM, receiver half (§4.1-§4.2).

Responsibilities:

- authenticate incoming aom packets (own HMAC-vector entry for aom-hm;
  switch signature plus backwards hash-chain walk for aom-pk);
- reassemble aom-hm partial vectors (one packet per receiver subgroup)
  into the full, transferable vector;
- deliver ordering certificates strictly in sequence-number order;
- generate drop-notifications for sequence gaps. The fabric preserves
  per-pair FIFO on the switch->receiver leg, so observing sequence ``s``
  proves every undelivered ``t < s`` was dropped on this receiver's leg —
  exactly the assumption the hardware design relies on;
- in the Byzantine-network fault model, exchange signed ``confirm``
  messages and withhold delivery until 2f+1 matching confirms arrive,
  which makes sequencer equivocation unable to split correct receivers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.aom.messages import (
    AomConfig,
    AomPacket,
    AuthVariant,
    ChainLink,
    Confirm,
    DropNotification,
    EpochConfig,
    NetworkFaultModel,
    OrderingCertificate,
    PkProof,
    header_digest,
    switch_identity,
)
from repro.crypto.backend import CryptoContext
from repro.crypto.hmacvec import HmacVector, mac_state, mac_with
from repro.sim.clock import us
from repro.switchfab.fpga import ChainedToken
from repro.switchfab.hmac_pipeline import PartialVector

DeliverFn = Callable[[OrderingCertificate], None]
DropFn = Callable[[DropNotification], None]
StuckFn = Callable[[int, int], None]  # (epoch, blocked_sequence)
DeliverHook = Callable[[int, int, str], None]  # (epoch, sequence, what)

#: Byzantine-network confirms are sent in batches of up to this many...
CONFIRM_BATCH_MAX = 8
#: ...or when the oldest unsent confirm has waited this long.
CONFIRM_FLUSH_NS = us(15)


class AomReceiverLib:
    """Per-receiver aom state machine, embedded in a host endpoint.

    ``on_deliver`` holds delivery observers: each is called as
    ``hook(epoch, sequence, what)`` just before a certificate
    (``what="certificate"``) or a drop-notification
    (``what="drop-notification"``) is handed to the host. The invariant
    monitor subscribes here.
    """

    def __init__(
        self,
        host,  # Endpoint: used for send/charge/timers
        config: AomConfig,
        crypto: CryptoContext,
        deliver: DeliverFn,
        deliver_drop: DropFn,
        on_stuck: Optional[StuckFn] = None,
        stuck_timeout_ns: int = us(400),
        pk_verify_interval_ns: int = us(25),
        pk_batch_max: int = 32,
        payload_binding=None,
    ):
        self.host = host
        self.config = config
        self.crypto = crypto
        self.deliver = deliver
        self.deliver_drop = deliver_drop
        self.on_deliver: List[DeliverHook] = []
        self.on_stuck = on_stuck
        self.stuck_timeout_ns = stuck_timeout_ns
        self.pk_verify_interval_ns = pk_verify_interval_ns
        self.pk_batch_max = pk_batch_max
        # Optional payload->canonical-bytes extractor. When set, delivery
        # additionally requires H(canonical(payload)) == header digest, so
        # a message whose payload does not match its authenticated digest
        # is treated as never delivered (the sequence gap then resolves
        # through the normal drop machinery, identically at every correct
        # receiver). This closes the splice hole: the switch authenticates
        # only the digest, never the payload bytes themselves.
        self.payload_binding = payload_binding
        self._confirm_outbox: List[Confirm] = []
        self._confirm_timer = None
        self._pending_signed = None
        self._pk_verify_timer = None

        self.epoch = 0
        self.epoch_config: Optional[EpochConfig] = None
        self._switch_mac = None  # prepared MAC state of epoch_config.hmac_key
        self._peers: Tuple[int, ...] = ()  # the epoch's other receivers
        self._reset_epoch_state()
        self._counters = host.sim.metrics.scope("aom.", node=host.name)
        self.last_delivery_ns = 0  # when the head last advanced
        self.epoch_installed_ns = 0  # when the current epoch was installed

    # Read-only views of the registry for benchmarks/scorecard/workloads.py.

    @property
    def delivered_count(self) -> int:
        return self._counters.get("delivered")

    @property
    def dropped_count(self) -> int:
        return self._counters.get("drop_notifications")

    # -------------------------------------------------------------- epochs

    def _reset_epoch_state(self) -> None:
        self.next_seq = 1
        self._authentic: Dict[int, OrderingCertificate] = {}
        self._dropped: Set[int] = set()
        self._hm_partials: Dict[int, Dict[int, AomPacket]] = {}
        self._pk_buffer: Dict[int, AomPacket] = {}
        self._confirms: Dict[int, Dict[bytes, Dict[int, Confirm]]] = {}
        self._confirm_sent: Set[int] = set()
        self._stuck_timer = None
        self._confirm_outbox = []
        if self._confirm_timer is not None:
            self._confirm_timer.cancel()
        self._confirm_timer = None
        self._pending_signed = None
        if self._pk_verify_timer is not None:
            self._pk_verify_timer.cancel()
            self._pk_verify_timer = None

    def install_epoch(self, epoch_config: EpochConfig) -> None:
        """Adopt a new sequencer epoch announced by the config service."""
        if self.epoch_config is not None and epoch_config.epoch <= self.epoch:
            return
        self.epoch = epoch_config.epoch
        self.epoch_config = epoch_config
        self._switch_mac = mac_state(epoch_config.hmac_key)
        # One tuple per epoch: every confirm vector this receiver makes
        # shares it as its ids.
        me = self.host.address
        self._peers = tuple([rid for rid in epoch_config.receiver_ids if rid != me])
        self.epoch_installed_ns = self.host.sim.now
        self._reset_epoch_state()

    @property
    def group_size(self) -> int:
        """Number of receivers in the installed epoch."""
        if self.epoch_config is None:
            return 0
        return len(self.epoch_config.receiver_ids)

    def _confirm_quorum(self) -> int:
        return 2 * self.config.confirm_fault_bound + 1

    # ------------------------------------------------------------- ingress

    def on_packet(self, packet: AomPacket) -> None:
        """Handle one aom datagram from the sequencer switch."""
        if self.epoch_config is None or packet.epoch != self.epoch:
            return
        if packet.group_id != self.config.group_id:
            return
        seq = packet.sequence
        if seq < self.next_seq or seq in self._dropped:
            return  # stale or already resolved
        self._scan_for_drops(seq)
        if self.config.variant == AuthVariant.HMAC:
            self._ingest_hm(packet)
        else:
            self._ingest_pk(packet)
        self._flush()

    # ------------------------------------------------------- drop detection

    def _scan_for_drops(self, observed_seq: int) -> None:
        """FIFO gap rule: anything below ``observed_seq`` that never fully
        arrived is gone on this leg."""
        for missing in range(self.next_seq, observed_seq):
            if missing in self._dropped or missing in self._authentic:
                continue
            if self.config.variant == AuthVariant.HMAC:
                complete = self._hm_complete(missing)
            else:
                # pk packets that arrived may still verify via a future
                # signed packet; only never-arrived sequences are drops
                # here. Arrived-but-unverifiable ones are resolved when a
                # signed packet triggers the batch walk.
                complete = missing in self._pk_buffer
            if not complete:
                self._dropped.add(missing)

    def _verify_switch_tag(self, auth_input: bytes, tag: bytes) -> bool:
        """Check my HMAC-vector entry against the switch's tag."""
        self.crypto.bill(self.crypto.cost.hmac_ns)
        return mac_with(self._switch_mac, auth_input) == tag

    def _hm_complete(self, seq: int) -> bool:
        partials = self._hm_partials.get(seq)
        if not partials:
            return False
        total = next(iter(partials.values())).auth.total_subgroups
        return len(partials) == total

    # ------------------------------------------------------------- aom-hm

    def _ingest_hm(self, packet: AomPacket) -> None:
        partial: PartialVector = packet.auth
        slot = self._hm_partials.setdefault(packet.sequence, {})
        if partial.subgroup_index in slot:
            return  # duplicate partial
        slot[partial.subgroup_index] = packet
        if len(slot) < partial.total_subgroups:
            return
        self._assemble_hm(packet.sequence)

    def _assemble_hm(self, seq: int) -> None:
        parts = self._hm_partials.pop(seq)
        packets = [parts[i] for i in sorted(parts)]
        reference = packets[0]
        full_vector: HmacVector = packets[0].auth.vector
        if len(packets) > 1:
            for later in packets[1:]:
                full_vector = full_vector.merge(later.auth.vector)
            receiver_ids = self.epoch_config.receiver_ids
            if full_vector.ids == receiver_ids:
                # Every receiver's certificate shares the epoch's ids tuple.
                full_vector = HmacVector(receiver_ids, full_vector.packed)
        my_id = self.host.address
        if not full_vector.has_entry(my_id):
            return  # vector does not cover me: inauthentic
        if not self._verify_switch_tag(
            reference.auth_input(), full_vector.tag_for(my_id)
        ):
            return  # forged or corrupted: never deliver
        cert = OrderingCertificate(
            group_id=reference.group_id,
            epoch=reference.epoch,
            sequence=seq,
            digest=reference.digest,
            payload=reference.payload,
            sender=reference.sender,
            variant=AuthVariant.HMAC,
            hm_vector=full_vector,
        )
        self._mark_authentic(cert)

    # ------------------------------------------------------------- aom-pk

    def _ingest_pk(self, packet: AomPacket) -> None:
        token: ChainedToken = packet.auth
        if packet.sequence in self._pk_buffer or packet.sequence in self._authentic:
            return  # first packet for a sequence number wins
        self._pk_buffer[packet.sequence] = packet
        if token.signature is None:
            return  # wait for a covering signed packet
        # Batch signature verification (§4.4 receiver side): one expensive
        # secp256k1 verify authenticates everything chained below it, so
        # the receiver verifies at most one signature per interval and lets
        # the hash chain cover the rest.
        if self._pending_signed is None or packet.sequence > self._pending_signed.sequence:
            self._pending_signed = packet
        # Verify when a full batch accumulated, or after a short deadline
        # (bounds added latency at low load).
        if len(self._pk_buffer) >= self.pk_batch_max:
            self._verify_pending_pk()
        elif self._pk_verify_timer is None:
            def fire() -> None:
                self._pk_verify_timer = None
                self._verify_pending_pk()

            self._pk_verify_timer = self.host.set_timer(self.pk_verify_interval_ns, fire)

    def _verify_pending_pk(self) -> None:
        if self._pk_verify_timer is not None:
            self._pk_verify_timer.cancel()
            self._pk_verify_timer = None
        packet = self._pending_signed
        if packet is None:
            return
        self._pending_signed = None
        self.crypto.digest(b"")  # charge: recompute header digest
        signer = switch_identity(packet.group_id, packet.epoch)
        if not self.crypto.verify(signer, packet.header_digest(), packet.auth.signature):
            return
        self._walk_chain(packet)
        self._flush()

    def _walk_chain(self, signed_packet: AomPacket) -> None:
        """Batch-verify buffered packets from ``signed_packet`` downwards.

        The chain walk certifies the contiguous run below each verified
        *anchor*. A network drop punches a hole the chain cannot cross, so
        when the walk hits one it searches below the hole for the nearest
        buffered packet that carries its own signature, verifies it
        directly (one extra public-key operation per hole) and continues —
        without this, a single drop would invalidate every not-yet-
        verified packet beneath it. Whatever remains uncertified below the
        top anchor afterwards is undeliverable and becomes a drop.
        """
        top_seq = signed_packet.sequence
        anchor: Optional[AomPacket] = signed_packet
        first_anchor = True
        while anchor is not None:
            if not first_anchor:
                self.crypto.digest(b"")
                signer = switch_identity(anchor.group_id, anchor.epoch)
                if not self.crypto.verify(
                    signer, anchor.header_digest(), anchor.auth.signature
                ):
                    break
            first_anchor = False
            signature = anchor.auth.signature
            self._certify_pk(anchor, PkProof(signature, ()))
            links: List[ChainLink] = [
                ChainLink(
                    sequence=anchor.sequence,
                    payload_digest=anchor.digest,
                    prev_digest=anchor.auth.prev_digest,
                )
            ]
            expected_prev = anchor.auth.prev_digest
            i = anchor.sequence - 1
            hole_at: Optional[int] = None
            while i >= self.next_seq and i not in self._authentic:
                earlier = self._pk_buffer.get(i)
                if earlier is None:
                    hole_at = i
                    break
                self.crypto.digest(b"")  # charge one chain-link hash
                if earlier.header_digest() != expected_prev:
                    break  # tampered packet: stop this run
                self._certify_pk(earlier, PkProof(signature, tuple(links)))
                links.append(
                    ChainLink(
                        sequence=i,
                        payload_digest=earlier.digest,
                        prev_digest=earlier.auth.prev_digest,
                    )
                )
                expected_prev = earlier.auth.prev_digest
                i -= 1
            if hole_at is None:
                break
            anchor = None
            j = hole_at - 1
            while j >= self.next_seq and j not in self._authentic:
                candidate = self._pk_buffer.get(j)
                if candidate is not None and candidate.auth.signature is not None:
                    anchor = candidate
                    break
                j -= 1
        # Everything below the top anchor that did not certify is now known
        # undeliverable (§4.4 batch rule).
        for t in range(self.next_seq, top_seq):
            if t not in self._authentic and t not in self._dropped:
                self._dropped.add(t)
                self._pk_buffer.pop(t, None)

    def _certify_pk(self, packet: AomPacket, proof: PkProof) -> None:
        self._pk_buffer.pop(packet.sequence, None)
        cert = OrderingCertificate(
            group_id=packet.group_id,
            epoch=packet.epoch,
            sequence=packet.sequence,
            digest=packet.digest,
            payload=packet.payload,
            sender=packet.sender,
            variant=AuthVariant.PUBKEY,
            pk_prev_digest=packet.auth.prev_digest,
            pk_proof=proof,
        )
        self._mark_authentic(cert)

    # --------------------------------------------------------- confirm (BN)

    def _mark_authentic(self, cert: OrderingCertificate) -> None:
        if cert.sequence in self._dropped:
            return
        if not self._binding_holds(cert):
            self._dropped.add(cert.sequence)
            return
        self._authentic[cert.sequence] = cert
        if self.config.network_fault_model == NetworkFaultModel.BYZANTINE:
            self._send_confirm(cert)

    def _send_confirm(self, cert: OrderingCertificate) -> None:
        if cert.sequence in self._confirm_sent:
            return
        self._confirm_sent.add(cert.sequence)
        my_id = self.host.address
        body_stub = Confirm(
            group_id=cert.group_id,
            epoch=cert.epoch,
            sequence=cert.sequence,
            digest=cert.digest,
            replica=my_id,
            auth=None,
        )
        vector = self.crypto.mac_vector(self._peers, body_stub.signed_body())
        confirm = Confirm(
            group_id=cert.group_id,
            epoch=cert.epoch,
            sequence=cert.sequence,
            digest=cert.digest,
            replica=my_id,
            auth=vector,
        )
        self._record_confirm(confirm)  # my own confirm counts toward quorum
        # Batch confirms (§6.2: "by batch processing confirm messages") so
        # the per-message overhead amortizes at high load.
        self._confirm_outbox.append(confirm)
        if len(self._confirm_outbox) >= CONFIRM_BATCH_MAX:
            self._flush_confirms()
        elif self._confirm_timer is None:
            def fire() -> None:
                self._confirm_timer = None
                self._flush_confirms()

            self._confirm_timer = self.host.set_timer(CONFIRM_FLUSH_NS, fire)

    def _flush_confirms(self) -> None:
        from repro.aom.messages import ConfirmBatch

        if self._confirm_timer is not None:
            self._confirm_timer.cancel()
            self._confirm_timer = None
        if not self._confirm_outbox:
            return
        batch = ConfirmBatch(tuple(self._confirm_outbox))
        self._confirm_outbox = []
        for rid in self._peers:
            self.host.send(rid, batch)

    def on_confirm_batch(self, batch, src: int) -> None:
        """Handle a peer's batched confirms."""
        for confirm in batch.confirms:
            self.on_confirm(confirm, src)

    def on_confirm(self, confirm: Confirm, src: int) -> None:
        """Handle a peer's confirm message."""
        if self.epoch_config is None or confirm.epoch != self.epoch:
            return
        if confirm.replica not in self.epoch_config.receiver_ids:
            return
        if confirm.sequence < self.next_seq:
            return
        if not self.crypto.verify_vector_from(
            confirm.replica, confirm.signed_body(), confirm.auth
        ):
            return
        self._record_confirm(confirm)
        self._flush()

    def _record_confirm(self, confirm: Confirm) -> None:
        by_digest = self._confirms.setdefault(confirm.sequence, {})
        by_replica = by_digest.setdefault(confirm.digest, {})
        by_replica[confirm.replica] = confirm

    def _confirmed(self, cert: OrderingCertificate) -> bool:
        by_digest = self._confirms.get(cert.sequence, {})
        matching = by_digest.get(cert.digest, {})
        return len(matching) >= self._confirm_quorum()

    # ------------------------------------------------------------- delivery

    def _flush(self) -> None:
        progressed = False
        while True:
            seq = self.next_seq
            if seq in self._dropped:
                self._dropped.discard(seq)
                self._cleanup(seq)
                self.next_seq += 1
                self._counters.add("drop_notifications")
                progressed = True
                for hook in self.on_deliver:
                    hook(self.epoch, seq, "drop-notification")
                self.deliver_drop(
                    DropNotification(self.config.group_id, self.epoch, seq)
                )
                continue
            cert = self._authentic.get(seq)
            if cert is None:
                break
            if self.config.network_fault_model == NetworkFaultModel.BYZANTINE:
                if not self._confirmed(cert):
                    break
                matching = self._confirms[seq][cert.digest]
                cert.confirms = tuple(sorted(matching.values(), key=lambda c: c.replica))
            del self._authentic[seq]
            self._cleanup(seq)
            self.next_seq += 1
            self._counters.add("delivered")
            progressed = True
            for hook in self.on_deliver:
                hook(cert.epoch, cert.sequence, "certificate")
            self.deliver(cert)
        if progressed:
            self.last_delivery_ns = self.host.sim.now
        self._manage_stuck_timer(progressed)

    def _cleanup(self, seq: int) -> None:
        self._hm_partials.pop(seq, None)
        self._pk_buffer.pop(seq, None)
        self._confirms.pop(seq, None)
        self._confirm_sent.discard(seq)

    # ------------------------------------------------------- stuck watchdog

    def _has_pending_beyond_head(self) -> bool:
        # Anything buffered past the head, or the head itself waiting (for
        # confirms, say) as a certificate or a pk packet. The tables are
        # empty on almost every flush, so test that before taking a max.
        head = self.next_seq
        return bool(
            (self._authentic and max(self._authentic) >= head)
            or (self._pk_buffer and max(self._pk_buffer) >= head)
            or (self._hm_partials and max(self._hm_partials) > head)
        )

    def _manage_stuck_timer(self, progressed: bool) -> None:
        if self.on_stuck is None:
            return
        if progressed and self._stuck_timer is not None:
            self._stuck_timer.cancel()
            self._stuck_timer = None
        if self._has_pending_beyond_head() and self._stuck_timer is None:
            blocked_at = self.next_seq
            epoch = self.epoch

            def fire() -> None:
                self._stuck_timer = None
                if self.epoch == epoch and self.next_seq == blocked_at:
                    if self._has_pending_beyond_head():
                        self.on_stuck(epoch, blocked_at)

            self._stuck_timer = self.host.set_timer(self.stuck_timeout_ns, fire)

    def _binding_holds(self, cert: OrderingCertificate) -> bool:
        if self.payload_binding is None:
            return True
        canonical = self.payload_binding(cert.payload)
        if canonical is None:
            return False
        return self.crypto.digest(canonical) == cert.digest

    # ----------------------------------------------------- cert verification

    def verify_certificate(self, cert: OrderingCertificate) -> bool:
        """Independently verify a transferred ordering certificate.

        This is the transferable-authentication property: any receiver can
        validate a certificate relayed by another receiver (used by
        NeoBFT's query-reply, gap-decision, and view-change handling).
        """
        if self.epoch_config is None or cert.epoch != self.epoch:
            return self._verify_cert_static(cert)
        if cert.variant == AuthVariant.HMAC:
            if cert.hm_vector is None:
                return False
            my_id = self.host.address
            if not cert.hm_vector.has_entry(my_id):
                return False
            return self._verify_switch_tag(
                cert.auth_input(), cert.hm_vector.tag_for(my_id)
            )
        return self._verify_pk_cert(cert)

    def _verify_cert_static(self, cert: OrderingCertificate) -> bool:
        # Certificates from older epochs: HMAC keys may have rotated, but
        # pk certificates stay verifiable against the old switch identity.
        if cert.variant == AuthVariant.PUBKEY:
            return self._verify_pk_cert(cert)
        if self.config.network_fault_model == NetworkFaultModel.BYZANTINE:
            return len(cert.confirms) >= self._confirm_quorum()
        return cert.hm_vector is not None

    def _verify_pk_cert(self, cert: OrderingCertificate) -> bool:
        proof = cert.pk_proof
        if proof is None:
            return False
        current = cert.header_digest()
        self.crypto.digest(b"")
        sequence = cert.sequence
        # links run from the signed packet down to just above cert; re-chain
        # upward: each link's prev_digest must equal the digest below it.
        ordered = sorted(proof.links, key=lambda l: l.sequence)
        for link in ordered:
            if link.sequence <= sequence:
                return False
            if link.prev_digest != current:
                return False
            self.crypto.digest(b"")
            current = header_digest(
                cert.group_id, cert.epoch, link.sequence, link.payload_digest, link.prev_digest
            )
            sequence = link.sequence
        return self.crypto.verify(
            switch_identity(cert.group_id, cert.epoch), current, proof.signature
        )
