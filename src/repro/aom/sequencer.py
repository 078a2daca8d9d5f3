"""The aom sequencer switch (§4.2): sequencing + authentication + multicast.

A :class:`AomSequencer` is registered with the fabric as the group handler
for one aom group address. Per packet it:

1. increments the group's register counter and stamps epoch + sequence;
2. runs the authentication engine — the folded HMAC pipeline or the FPGA
   public-key coprocessor — which determines the completion time through
   its queue model (and may tail-drop under overload);
3. uses the replication engine to multicast the authenticated packet(s)
   to every receiver, one egress leg each (legs drop independently, which
   is exactly the failure NeoBFT's gap agreement exists for).

Fault hooks used by :mod:`repro.faults`: the sequencer can be *failed*
(silently drops everything — §6.4's failover experiment) or given an
*equivocation behaviour* (assigns conflicting payloads per receiver —
only tolerable in the Byzantine-network fault model).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional, Sequence

from repro.aom.messages import AomPacket, AuthVariant
from repro.net.fabric import Fabric, GroupHandler
from repro.net.packet import Packet, wire_size_of
from repro.sim.engine import Simulator
from repro.switchfab.fpga import ChainedToken, FpgaCoprocessor
from repro.switchfab.hmac_pipeline import FoldedHmacPipeline
from repro.telemetry.spans import trace_key_of as _trace_key_of

# An equivocation behaviour maps (receiver, packet) -> packet to actually
# send (or None to suppress that leg).
EquivocationBehavior = Callable[[int, AomPacket], Optional[AomPacket]]


class AomSequencer(GroupHandler):
    """One group's sequencer switch."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        group_id: int,
        epoch: int,
        variant: AuthVariant,
        receivers: Sequence[int],
        switch_address: int,
        hmac_pipeline: Optional[FoldedHmacPipeline] = None,
        fpga: Optional[FpgaCoprocessor] = None,
    ):
        if variant == AuthVariant.HMAC and hmac_pipeline is None:
            raise ValueError("HMAC variant needs a FoldedHmacPipeline")
        if variant == AuthVariant.PUBKEY and fpga is None:
            raise ValueError("public-key variant needs an FpgaCoprocessor")
        self.sim = sim
        self.fabric = fabric
        self.group_id = group_id
        self.epoch = epoch
        self.variant = variant
        self.receivers = list(receivers)
        self.switch_address = switch_address
        self.hmac_pipeline = hmac_pipeline
        self.fpga = fpga
        self.sequence = 0  # the per-group register counter
        self._last_header_digest = b"\x00" * 32  # pk hash-chain register
        self.failed = False
        self.equivocation: Optional[EquivocationBehavior] = None
        # aom.sequenced{group}: every stamped packet, tail-dropped or not;
        # switch.tail_drops{group}: every packet the switch dropped.
        self._aom_counters = sim.metrics.scope("aom.", group=group_id)
        self._switch_counters = sim.metrics.scope("switch.", group=group_id)
        self._signature_counters = {
            kind: sim.metrics.scope("switch.", kind=kind) for kind in ("issued", "skipped")
        }

    # ------------------------------------------------------------ fault API

    def fail(self) -> None:
        """Simulate a failed/partitioned sequencer: drop everything."""
        self.failed = True

    def recover(self) -> None:
        """Clear the failure (transient fault recovery)."""
        self.failed = False

    # ------------------------------------------------------------- ingress

    def on_packet(self, packet: Packet, arrival: int) -> None:
        """Fabric callback at switch ingress for group-addressed traffic."""
        if self.failed:
            self._switch_counters.add("tail_drops")
            return
        message = packet.message
        digest = getattr(message, "digest", None)
        payload = getattr(message, "payload", message)
        if digest is None:
            # Sender bypassed libAOM; a real switch would still sequence
            # the raw bytes. Use a zero digest; receivers will reject.
            digest = b"\x00" * 32
        self.sequence += 1
        self._aom_counters.add("sequenced")
        sequence = self.sequence
        if self.variant == AuthVariant.HMAC:
            self._authenticate_hm(arrival, sequence, digest, payload, packet.src)
        else:
            self._authenticate_pk(arrival, sequence, digest, payload, packet.src)

    # ---------------------------------------------------------------- aom-hm

    def _authenticate_hm(
        self, arrival: int, sequence: int, digest: bytes, payload, sender: int
    ) -> None:
        base = AomPacket(
            group_id=self.group_id,
            epoch=self.epoch,
            sequence=sequence,
            digest=digest,
            payload=payload,
            sender=sender,
            auth=None,
        )
        result = self.hmac_pipeline.authenticate(arrival, base.auth_input())
        if result is None:
            self._switch_counters.add("tail_drops")
            return
        done, partials = result
        tel = self.sim.telemetry
        if tel is not None:
            self.sim.metrics.set_gauge(
                "switch.hmac_stage_busy",
                self.hmac_pipeline.engine.backlog_ns(arrival),
                stage="pipe1",
            )
            self._record_sequence_span(tel, arrival, done, sequence, payload)
        copies = [replace(base, auth=partial) for partial in partials]
        self.sim.post_at(done, self._multicast_many, copies)

    # ---------------------------------------------------------------- aom-pk

    def _authenticate_pk(
        self, arrival: int, sequence: int, digest: bytes, payload, sender: int
    ) -> None:
        prev = self._last_header_digest
        provisional = AomPacket(
            group_id=self.group_id,
            epoch=self.epoch,
            sequence=sequence,
            digest=digest,
            payload=payload,
            sender=sender,
            auth=ChainedToken(prev_digest=prev, signature=None),
        )
        header_digest = provisional.header_digest()
        result = self.fpga.process(arrival, header_digest, prev)
        # The packet updater stamps the chain before the tail-drop point,
        # so the chain register advances even for dropped packets; the
        # resulting sequence gap is what receivers' drop detection keys on.
        self._last_header_digest = header_digest
        if result is None:
            self._switch_counters.add("tail_drops")
            return
        done, token = result
        kind = "issued" if token.signature is not None else "skipped"
        self._signature_counters[kind].add("fpga_signatures")
        tel = self.sim.telemetry
        if tel is not None:
            self.sim.metrics.set_gauge("switch.fpga_stock", self.fpga.stock_level(arrival))
            self._record_sequence_span(tel, arrival, done, sequence, payload)
        packet = replace(provisional, auth=token)
        self.sim.post_at(done, self._multicast_many, [packet])

    # ----------------------------------------------------------- telemetry

    def _record_sequence_span(self, tel, arrival: int, done: int, sequence: int, payload) -> None:
        trace = _trace_key_of(payload)
        if trace is not None:
            tel.spans.record(
                trace, "switch.sequence", "sequencer", f"sequencer-{self.group_id}",
                arrival, done, sequence=sequence, variant=self.variant.name.lower(),
            )

    # ------------------------------------------------------------ multicast

    def _multicast_many(self, packets: List[AomPacket]) -> None:
        for aom_packet in packets:
            self._multicast(aom_packet)

    def _multicast(self, aom_packet: AomPacket) -> None:
        base_size = wire_size_of(aom_packet)
        for receiver in self.receivers:
            outgoing, size = aom_packet, base_size
            if self.equivocation is not None:
                maybe = self.equivocation(receiver, aom_packet)
                if maybe is None:
                    continue
                if maybe is not aom_packet:
                    outgoing, size = maybe, wire_size_of(maybe)
            egress = Packet(
                src=self.switch_address,
                dst=receiver,
                message=outgoing,
                size=size,
                sent_at=self.sim.now,
            )
            self.fabric.deliver_from_switch(receiver, egress)
