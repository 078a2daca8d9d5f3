"""Network-attached actors.

An :class:`Endpoint` is the base class for every host process in the
system: protocol replicas, clients, the configuration service. It wires an
actor's CPU model to the fabric: inbound packets queue on the CPU and are
charged per-message receive cost before the protocol handler runs;
outbound sends are charged immediately and depart when the producing
handler's CPU time completes.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.net.fabric import EndpointPort, Fabric
from repro.net.packet import Address, Packet, wire_size_of
from repro.sim.actors import Actor
from repro.sim.engine import Simulator


class Endpoint(Actor, EndpointPort):
    """An actor with a NIC."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cores: int = 1,
        cost_model: Optional[CostModel] = None,
    ):
        super().__init__(sim, name, cores)
        self.cost = cost_model or DEFAULT_COST_MODEL
        self.fabric: Optional[Fabric] = None
        self.address: Optional[int] = None
        self.messages_sent = 0
        self.messages_received = 0
        from repro.sim.monitor import Counter

        self.metrics = Counter()

    def attach(self, fabric: Fabric, address: Optional[int] = None) -> int:
        """Connect to the fabric; returns the assigned host address."""
        self.fabric = fabric
        self.address = fabric.attach(self, address)
        return self.address

    # ---------------------------------------------------------------- send

    def send(self, dst: Address, message: object) -> None:
        """Send a message; departs when the current handler completes."""
        if self.fabric is None or self.address is None:
            raise RuntimeError(f"{self.name} is not attached to a fabric")
        self.messages_sent += 1
        size = wire_size_of(message)
        self.charge(self.cost.message_cost(size))
        self.defer(self.fabric.transmit, self.address, dst, message, size)

    def send_all(self, destinations, message: object) -> None:
        """Unicast the same message to several hosts."""
        for dst in destinations:
            self.send(dst, message)

    # ------------------------------------------------------------- receive

    def receive(self, packet: Packet, arrival: int) -> None:
        """Fabric callback: queue the packet on this endpoint's CPU."""
        tel = self.sim.telemetry
        if tel is not None:
            tel.metrics.set_gauge(
                "net.queue_depth", self.cpu.queue_depth, host=self.name
            )
            tel.metrics.inc("net.received", host=self.name)
        self.execute(arrival, self._handle_packet, packet)

    def _handle_packet(self, packet: Packet) -> None:
        self.messages_received += 1
        self.charge(self.cost.message_cost(packet.size))
        self.on_message(packet.src, packet.message)

    def on_message(self, src: int, message: object) -> None:
        """Protocol handler; subclasses override."""
        raise NotImplementedError
