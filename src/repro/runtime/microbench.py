"""aom micro-benchmark harness (§6.1).

The paper measures aom at the switch: packets are injected by the Tofino
packet generator and latency is the difference between ingress and egress
switch timestamps. This harness does the same against the switch models:
it drives a sequencer's ingress directly at a configured offered load and
records per-packet (completion - arrival) latency at the authentication
engine's egress, bypassing host endpoints entirely — so Figures 4, 5 and
6 measure the in-network design, not the host stack.
"""

from __future__ import annotations

from typing import Optional

from repro.aom.messages import AuthVariant
from repro.aom.sequencer import AomSequencer
from repro.crypto.backend import KeyAuthority
from repro.crypto.digests import sha256_digest
from repro.net.packet import GroupAddress, Packet
from repro.records import record
from repro.sim import Histogram, Simulator
from repro.sim.clock import MICROSECOND
from repro.switchfab.fpga import FpgaCoprocessor
from repro.switchfab.hmac_pipeline import FoldedHmacPipeline


class _EgressProbe:
    """A fabric stand-in that timestamps egress instead of delivering."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.first_leg_seen = set()
        self.latency = Histogram("switch-latency")
        self.delivered = 0
        self.first_egress = None
        self.last_egress = 0
        self._ingress: dict = {}

    def note_ingress(self, sequence: int, time: int) -> None:
        self._ingress[sequence] = time

    def deliver_from_switch(self, dst: int, packet: Packet, extra_delay: int = 0) -> None:
        message = packet.message
        sequence = message.sequence
        if sequence in self.first_leg_seen:
            return  # count one egress per aom message
        self.first_leg_seen.add(sequence)
        ingress = self._ingress.pop(sequence, None)
        if ingress is not None:
            self.latency.record(self.sim.now - ingress)
        if self.first_egress is None:
            self.first_egress = self.sim.now
        self.last_egress = self.sim.now
        self.delivered += 1


@record
class MicrobenchResult:
    """Outcome of one switch-side run."""

    variant: str
    group_size: int
    offered_pps: float
    delivered_pps: float
    latency: Histogram
    switch_drops: int

    def median_us(self) -> float:
        return self.latency.median() / MICROSECOND

    def p999_us(self) -> float:
        return self.latency.percentile(99.9) / MICROSECOND


def build_sequencer(
    sim: Simulator,
    probe: _EgressProbe,
    variant: AuthVariant,
    group_size: int,
    fpga_kwargs: Optional[dict] = None,
    hmac_kwargs: Optional[dict] = None,
) -> AomSequencer:
    """A standalone sequencer switch wired to the egress probe."""
    authority = KeyAuthority(b"repro")
    identity = 1_000_000
    authority.register(identity)
    receivers = list(range(group_size))
    hmac_pipeline = None
    fpga = None
    if variant == AuthVariant.HMAC:
        keys = [(rid, bytes([rid % 251]) * 8) for rid in receivers]
        hmac_pipeline = FoldedHmacPipeline(keys, **(hmac_kwargs or {}))
    else:
        fpga = FpgaCoprocessor(
            sign=lambda data: authority.sign_as(identity, data), **(fpga_kwargs or {})
        )
    return AomSequencer(
        sim=sim,
        fabric=probe,  # duck-typed: only deliver_from_switch is used
        group_id=1,
        epoch=1,
        variant=variant,
        receivers=receivers,
        switch_address=identity,
        hmac_pipeline=hmac_pipeline,
        fpga=fpga,
    )


@record
class _SyntheticAomMessage:
    digest: bytes
    payload: bytes


def run_offered_load(
    variant: AuthVariant,
    group_size: int,
    offered_pps: float,
    packets: int = 20_000,
    seed: int = 1,
    jitter_fraction: float = 0.1,
    **sequencer_kwargs,
) -> MicrobenchResult:
    """Inject ``packets`` at ``offered_pps`` and measure switch latency."""
    sim = Simulator(seed=seed)
    probe = _EgressProbe(sim)
    sequencer = build_sequencer(sim, probe, variant, group_size, **sequencer_kwargs)
    rng = sim.streams.get("microbench.arrivals")
    spacing = 1e9 / offered_pps
    digest = sha256_digest(b"aom-microbench")
    message = _SyntheticAomMessage(digest=digest, payload=b"x" * 32)

    time_cursor = 0.0
    first_inject = None
    last_inject = 0
    for i in range(packets):
        time_cursor += spacing * (1.0 + jitter_fraction * (rng.random() - 0.5))
        arrival = int(time_cursor)
        if first_inject is None:
            first_inject = arrival
        last_inject = arrival

        def inject(arrival=arrival):
            packet = Packet(
                src=9_999,
                dst=GroupAddress(1),
                message=message,
                size=64,
                sent_at=arrival,
            )
            probe.note_ingress(sequencer.sequence + 1, arrival)
            sequencer.on_packet(packet, arrival)

        sim.schedule_at(arrival, inject)
    sim.run()
    # Rate over the egress window: correct both when everything passes
    # (window ~= injection span) and under overdrive (window stretches to
    # the engine's service rate).
    if probe.delivered > 1:
        egress_span = max(1, probe.last_egress - probe.first_egress)
        delivered_pps = (probe.delivered - 1) * 1e9 / egress_span
    else:
        delivered_pps = 0.0
    return MicrobenchResult(
        variant=variant.value,
        group_size=group_size,
        offered_pps=offered_pps,
        delivered_pps=delivered_pps,
        latency=probe.latency,
        switch_drops=sim.metrics.snapshot().counter(
            "switch.tail_drops", group=sequencer.group_id
        ),
    )


def saturation_throughput(
    variant: AuthVariant,
    group_size: int,
    overdrive_pps: float = 200e6,
    packets: int = 20_000,
    **sequencer_kwargs,
) -> float:
    """Maximum sustained pps: overdrive the switch and count egress.

    Under overdrive the tail-drop queue sheds excess; the egress rate is
    the engine's saturation throughput (the paper's Figure 6 metric).
    """
    result = run_offered_load(
        variant,
        group_size,
        offered_pps=overdrive_pps,
        packets=packets,
        jitter_fraction=0.0,
        **sequencer_kwargs,
    )
    return result.delivered_pps
