"""The rack fabric: routing, delays, loss, partitions, multicast hand-off.

The fabric is intentionally not an :class:`~repro.sim.actors.Actor`: a ToR
switch forwards orders of magnitude more packets per second than any host
can generate here, so ordinary unicast traffic sees only deterministic
forwarding delay. In-network *processing* elements with real capacity
limits (the aom sequencer pipeline, the FPGA coprocessor) model their own
queues and are attached as :class:`GroupHandler` instances.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

import random

from repro.net.packet import Address, GroupAddress, Packet
from repro.net.profiles import NetworkProfile
from repro.sim.engine import Simulator
from repro.telemetry.spans import trace_key_of as _trace_key_of

DropFilter = Callable[[Packet], bool]
PacketPredicate = Callable[[Packet], bool]

#: The ``event`` label values of the ``net.packets`` counter.
PACKET_EVENTS = ("sent", "delivered", "lost", "partitioned", "filtered",
                 "unroutable", "reordered", "duplicated")


def _validate_fraction(fraction: float, what: str) -> None:
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"{what} fraction must be in [0, 1], got {fraction!r}")


class DuplicateInjector:
    """Delivers an extra copy of matching packets after a short lag.

    Models switch/NIC retransmit pathologies. The copy bypasses the
    per-pair FIFO clamp (a duplicate must not delay legitimate traffic
    behind it), so receivers see genuine at-least-once delivery.
    """

    def __init__(
        self,
        fraction: float,
        rng: random.Random,
        extra_delay_ns: int = 500,
        predicate: Optional[PacketPredicate] = None,
    ):
        _validate_fraction(fraction, "duplicate")
        if extra_delay_ns < 0:
            raise ValueError(f"duplicate extra_delay_ns must be >= 0, got {extra_delay_ns!r}")
        self.fraction = fraction
        self.rng = rng
        self.extra_delay_ns = extra_delay_ns
        self.predicate = predicate

    def matches(self, packet: Packet) -> bool:
        if self.predicate is not None and not self.predicate(packet):
            return False
        return self.rng.random() < self.fraction


class ReorderInjector:
    """Delays matching packets past the FIFO clamp so later traffic overtakes.

    The perturbed packet is scheduled without updating the per-pair FIFO
    watermark: packets sent after it can arrive first, which is exactly
    the reordering the aom receiver's FIFO-based drop detection assumes
    cannot happen — a chaos campaign uses this to probe that assumption.
    """

    def __init__(
        self,
        fraction: float,
        max_delay_ns: int,
        rng: random.Random,
        predicate: Optional[PacketPredicate] = None,
    ):
        _validate_fraction(fraction, "reorder")
        if max_delay_ns < 1:
            raise ValueError(f"reorder max_delay_ns must be >= 1, got {max_delay_ns!r}")
        self.fraction = fraction
        self.max_delay_ns = max_delay_ns
        self.rng = rng
        self.predicate = predicate

    def matches(self, packet: Packet) -> bool:
        if self.predicate is not None and not self.predicate(packet):
            return False
        return self.rng.random() < self.fraction

    def draw_delay(self) -> int:
        return self.rng.randrange(1, self.max_delay_ns + 1)


class GroupHandler:
    """Interface for in-network elements that own a multicast group."""

    def on_packet(self, packet: Packet, arrival: int) -> None:
        """Handle a packet addressed to the group; called at switch ingress."""
        raise NotImplementedError


class Fabric:
    """A single-rack star network."""

    def __init__(self, sim: Simulator, profile: Optional[NetworkProfile] = None):
        self.sim = sim
        self.profile = profile or NetworkProfile()
        # net.packets{event=...}: one counter scope per packet outcome.
        self._packets = {
            event: sim.metrics.scope("net.", event=event) for event in PACKET_EVENTS
        }
        self._sent = self._packets["sent"]
        self._delivered = self._packets["delivered"]
        self._endpoints: Dict[int, "EndpointPort"] = {}
        self._groups: Dict[GroupAddress, GroupHandler] = {}
        self._next_address = 0
        # Directed (src, dst) host pairs -> number of live partitions
        # naming them; a pair is blocked while any of them is.
        self._blocked: Dict[Tuple[int, int], int] = {}
        self._drop_filters: List[DropFilter] = []
        self._duplicators: List[DuplicateInjector] = []
        self._reorderers: List[ReorderInjector] = []
        # Per-pair FIFO watermark: the latest arrival scheduled for each
        # directed (src, dst) host pair. Host addresses never change within
        # a fabric, so the map is bounded by the attached host pairs.
        self._last_arrival: Dict[Tuple[int, int], int] = {}
        self._getrandbits = sim.streams.get("net.jitter").getrandbits
        self._loss_rng = sim.streams.get("net.loss")

    def _count(self, event: str) -> None:
        """Count one packet outcome as ``net.packets{event=...}``."""
        self._packets[event].add("packets")

    # ----------------------------------------------------------- topology

    def attach(self, port: "EndpointPort", address: Optional[int] = None) -> int:
        """Connect an endpoint; returns its assigned host address."""
        if address is None:
            address = self._next_address
        if address in self._endpoints:
            raise ValueError(f"address {address} already attached")
        self._next_address = max(self._next_address, address + 1)
        self._endpoints[address] = port
        return address

    def register_group(self, group: GroupAddress, handler: GroupHandler) -> None:
        """Route ``group``-addressed packets to an in-network handler."""
        self._groups[group] = handler

    def unregister_group(self, group: GroupAddress) -> None:
        """Remove a group route (sequencer failover tears down the old one)."""
        self._groups.pop(group, None)

    # --------------------------------------------------------------- faults

    def add_drop_filter(self, predicate: DropFilter) -> Callable[[], None]:
        """Install a targeted drop rule; returns a remover."""
        self._drop_filters.append(predicate)

        def remove() -> None:
            if predicate in self._drop_filters:
                self._drop_filters.remove(predicate)

        return remove

    def add_duplicator(self, injector: DuplicateInjector) -> Callable[[], None]:
        """Install a packet-duplication injector; returns a remover."""
        self._duplicators.append(injector)

        def remove() -> None:
            if injector in self._duplicators:
                self._duplicators.remove(injector)

        return remove

    def add_reorderer(self, injector: ReorderInjector) -> Callable[[], None]:
        """Install a packet-reordering injector; returns a remover."""
        self._reorderers.append(injector)

        def remove() -> None:
            if injector in self._reorderers:
                self._reorderers.remove(injector)

        return remove

    def partition(self, pairs: Iterable[Tuple[int, int]]) -> Callable[[], None]:
        """Black-hole traffic on each directed (src, dst) host pair; returns
        an idempotent remover.

        Partitions nest: a pair stays blocked until every partition that
        names it has been removed.
        """
        held = list(pairs)
        for pair in held:
            self._blocked[pair] = self._blocked.get(pair, 0) + 1

        def remove() -> None:
            while held:
                pair = held.pop()
                self._blocked[pair] -= 1
                if not self._blocked[pair]:
                    del self._blocked[pair]

        return remove

    def _should_drop(self, packet: Packet) -> bool:
        if isinstance(packet.dst, int) and (packet.src, packet.dst) in self._blocked:
            self._count("partitioned")
            return True
        for predicate in self._drop_filters:
            if predicate(packet):
                self._count("filtered")
                return True
        rate = self.profile.drop_rate
        if rate > 0.0 and self._loss_rng.random() < rate:
            self._count("lost")
            return True
        return False

    # ------------------------------------------------------------ transmit

    def transmit(self, src: int, dst: Address, message: object, size: int) -> None:
        """Inject a packet at ``src``'s NIC at the current virtual time.

        ``size`` is ``wire_size_of(message)``, which the sender has already
        computed to charge its CPU.
        """
        now = self.sim.now
        packet = Packet(src, dst, message, size, now)
        self._sent.add("packets")
        if not isinstance(dst, GroupAddress):
            # Host to switch to host: two links and the switch's forwarding.
            self._deliver(dst, packet, 2, self.profile.switch_forward_ns)
            return
        if self._should_drop(packet):
            return
        handler = self._groups.get(dst)
        if handler is None:
            self._count("unroutable")
            return
        ingress = self._delay(size, 1, 0)
        tel = self.sim.telemetry
        if tel is not None:
            trace = _trace_key_of(message)
            if trace is not None:
                tel.spans.record(
                    trace, "net.to_sequencer", "net", "fabric", now, now + ingress,
                )
        self.sim.post_at(now + ingress, handler.on_packet, packet, now + ingress)

    def deliver_from_switch(self, dst: int, packet: Packet, extra_delay: int = 0) -> None:
        """Egress leg from an in-network element to a host.

        Used by group handlers after their own processing: one link of
        latency plus serialization, then the host's receive path. Loss and
        partitions still apply (the sequencer's multicast legs can drop
        independently per receiver — that is what triggers NeoBFT's gap
        agreement). ``packet`` must already be addressed to ``dst``; it is
        forwarded as is.
        """
        self._deliver(dst, packet, 1, extra_delay)

    def _delay(self, size: int, links: int, extra: int) -> int:
        """Crossing ``links`` host-switch links with a ``size``-byte packet,
        plus ``extra`` ns and one jitter draw.

        The draw is ``randrange(jitter_ns)`` on the jitter stream with
        ``Random._randbelow`` inlined: the same values, one call fewer.
        """
        link = self.profile.link
        delay = links * (link.latency_ns + link.serialization_ns(size)) + extra
        bound = link.jitter_ns
        if bound > 0:
            bits = bound.bit_length()
            draw = self._getrandbits(bits)
            while draw >= bound:
                draw = self._getrandbits(bits)
            delay += draw
        return delay

    def _deliver(self, dst: int, packet: Packet, links: int, extra: int) -> None:
        """The one path of a host-bound packet: loss and partitions, routing,
        delay, perturbation injectors, the per-pair FIFO clamp, then the
        receiving host's NIC."""
        # The fault hooks are consulted only while one is in force.
        if (
            self._blocked or self._drop_filters or self.profile.drop_rate > 0.0
        ) and self._should_drop(packet):
            return
        port = self._endpoints.get(dst)
        if port is None:
            self._count("unroutable")
            return
        arrival = self.sim.now + self._delay(packet.size, links, extra)
        if self._reorderers or self._duplicators:
            self._perturb(port, packet, arrival)
        else:
            self._schedule_delivery(port, packet, arrival)

    def _perturb(self, port: "EndpointPort", packet: Packet, arrival: int) -> None:
        """Route one delivery through the active perturbation injectors."""
        for reorderer in self._reorderers:
            if reorderer.matches(packet):
                self._count("reordered")
                # Held back without moving the FIFO watermark: packets sent
                # later may now arrive first.
                self._schedule_delivery(port, packet, arrival + reorderer.draw_delay(), fifo=False)
                break
        else:
            self._schedule_delivery(port, packet, arrival)
        for duplicator in self._duplicators:
            if duplicator.matches(packet):
                self._count("duplicated")
                self._schedule_delivery(
                    port, packet, arrival + duplicator.extra_delay_ns, fifo=False
                )

    def _schedule_delivery(
        self, port: "EndpointPort", packet: Packet, arrival: int, fifo: bool = True
    ) -> None:
        if fifo:
            key = (packet.src, packet.dst)
            last = self._last_arrival.get(key, 0)
            if arrival < last:
                arrival = last
            self._last_arrival[key] = arrival
        self._delivered.add("packets")
        tel = self.sim.telemetry
        if tel is not None:
            trace = _trace_key_of(packet.message, dst=packet.dst)
            if trace is not None:
                tel.spans.record(
                    trace, "net.deliver", "net", "fabric",
                    self.sim.now, arrival, src=packet.src, dst=packet.dst,
                )
        self.sim.post_at(arrival, port.receive, packet, arrival)


class EndpointPort:
    """What the fabric needs from an attached endpoint."""

    def receive(self, packet: Packet, arrival: int) -> None:
        """Called by the fabric when a packet reaches this host's NIC."""
        raise NotImplementedError
