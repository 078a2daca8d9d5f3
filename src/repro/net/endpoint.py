"""Network-attached actors.

An :class:`Endpoint` is the base class for every host process in the
system: protocol replicas, clients, the configuration service. It wires an
actor's CPU model to the fabric: inbound packets queue on the CPU and are
charged per-message receive cost before the protocol handler runs;
outbound sends are charged immediately and depart when the producing
handler's CPU time completes.

Two interposer chains sit on those paths, for fault behaviours and test
harnesses: each interposer returns a replacement message, or ``None`` to
drop it, and the chain runs in installation order. Send interposers run
before the outbound message is sized and charged; receive interposers
run after the receive cost is charged and before :meth:`on_message`.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.crypto.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.net.fabric import EndpointPort, Fabric
from repro.net.packet import Address, Packet, wire_size_of
from repro.sim.actors import Actor
from repro.sim.engine import Simulator
from repro.sim.monitor import CounterScope

#: ``(peer, message) -> replacement message, or None to drop it``.
Interposer = Callable[[int, object], Optional[object]]


class Endpoint(Actor, EndpointPort):
    """An actor with a NIC."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cost_model: Optional[CostModel] = None,
    ):
        super().__init__(sim, name)
        self.cost = cost_model or DEFAULT_COST_MODEL
        self.fabric: Optional[Fabric] = None
        self.address: Optional[int] = None
        # net.sent{host} and net.received{host}.
        self._net = sim.metrics.scope("net.", host=name)
        # Protocol and fault-behaviour event counts of this host.
        self.metrics = self._event_counters()
        self._send_interposers: List[Interposer] = []
        self._receive_interposers: List[Interposer] = []

    def attach(self, fabric: Fabric, address: Optional[int] = None) -> int:
        """Connect to the fabric; returns the assigned host address."""
        self.fabric = fabric
        self.address = fabric.attach(self, address)
        return self.address

    def _event_counters(self) -> CounterScope:
        """``endpoint.*{node}``; replicas publish theirs as ``replica.*``."""
        return self.sim.metrics.scope("endpoint.", node=self.name)

    @property
    def messages_sent(self) -> int:
        """Read-only view of the registry for benchmarks/scorecard/workloads.py."""
        return self._net.get("sent")

    # -------------------------------------------------------- interposition

    def add_send_interposer(self, interposer: Interposer) -> Callable[[], None]:
        """Install a send-path interposer; returns its idempotent remover.

        It sees ``(dst, message)`` after the handler produced the message
        and before transport charging, so a replacement is sized and
        charged as what actually leaves the host.
        """
        return _install(self._send_interposers, interposer)

    def add_receive_interposer(self, interposer: Interposer) -> Callable[[], None]:
        """Install a receive-path interposer; returns its idempotent remover.

        It sees ``(src, message)`` after the receive cost is charged and
        before :meth:`on_message`.
        """
        return _install(self._receive_interposers, interposer)

    # ---------------------------------------------------------------- send

    def send(self, dst: Address, message: object) -> None:
        """Send a message; departs when the current handler completes."""
        if self.fabric is None or self.address is None:
            raise RuntimeError(f"{self.name} is not attached to a fabric")
        for interposer in self._send_interposers:
            message = interposer(dst, message)
            if message is None:
                return
        net = self._net.counts
        net["sent"] = net.get("sent", 0) + 1
        size = wire_size_of(message)
        cost = self.cost  # CostModel.message_cost, without the call
        self.charge(cost.msg_handle_ns + int(cost.per_byte_ns * size))
        self.defer(self.fabric.transmit, self.address, dst, message, size)

    # ------------------------------------------------------------- receive

    def receive(self, packet: Packet, arrival: int) -> None:
        """Fabric callback: queue the packet on this endpoint's CPU."""
        if self.sim.telemetry is not None:
            self.sim.metrics.set_gauge(
                "net.queue_depth", self.cpu.queue_depth, host=self.name
            )
        self.execute(arrival, self._handle_packet, packet)

    def _handle_packet(self, packet: Packet) -> None:
        net = self._net.counts
        net["received"] = net.get("received", 0) + 1
        cost = self.cost
        self.charge(cost.msg_handle_ns + int(cost.per_byte_ns * packet.size))
        message = packet.message
        for interposer in self._receive_interposers:
            message = interposer(packet.src, message)
            if message is None:
                return
        self.on_message(packet.src, message)

    def on_message(self, src: int, message: object) -> None:
        """Protocol handler; subclasses override."""
        raise NotImplementedError


def _install(chain: List[Interposer], interposer: Interposer) -> Callable[[], None]:
    """Append ``interposer`` to ``chain``; return a remover for that entry."""
    chain.append(interposer)

    def remove() -> None:
        if interposer in chain:
            chain.remove(interposer)

    return remove
