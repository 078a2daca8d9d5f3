"""Reusable aom test rig: a fabric, a config service, N receivers, a sender."""

from __future__ import annotations

from typing import Dict, List

from repro.aom import AomConfigService, AomReceiverLib, AomSenderLib
from repro.aom.messages import (
    AomConfig,
    AomPacket,
    AuthVariant,
    Confirm,
    ConfirmBatch,
    EpochConfig,
    NetworkFaultModel,
)
from repro.crypto.backend import CryptoContext, KeyAuthority
from repro.crypto.costmodel import CostModel
from repro.net import Fabric
from repro.net.endpoint import Endpoint
from repro.sim import Simulator

GROUP_ID = 7


class AomReceiverHost(Endpoint):
    """An endpoint that feeds its receiver library and records deliveries."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.lib: AomReceiverLib = None
        self.delivered = []  # (sequence, payload) or ('drop', sequence)
        self.certs = []

    def on_message(self, src, message):
        if isinstance(message, AomPacket):
            self.lib.on_packet(message)
        elif isinstance(message, Confirm):
            self.lib.on_confirm(message, src)
        elif isinstance(message, ConfirmBatch):
            self.lib.on_confirm_batch(message, src)
        elif isinstance(message, EpochConfig):
            self.lib.install_epoch(message)


class SenderHost(Endpoint):
    def on_message(self, src, message):
        pass


class AomRig:
    """Everything needed to exercise aom outside the protocol layer."""

    def __init__(
        self,
        variant=AuthVariant.HMAC,
        fault_model=NetworkFaultModel.CRASH,
        receivers: int = 4,
        seed: int = 1,
        profile=None,
        aom_kwargs: Dict = None,
        lib_kwargs: Dict = None,
    ):
        self.sim = Simulator(seed=seed)
        self.fabric = Fabric(self.sim, profile)
        self.authority = KeyAuthority(b"repro")
        self.cost = CostModel()
        self.config = AomConfig(
            group_id=GROUP_ID, variant=variant, network_fault_model=fault_model
        )
        self.receivers: List[AomReceiverHost] = []
        for i in range(receivers):
            host = AomReceiverHost(self.sim, f"r{i}")
            host.attach(self.fabric)
            self.receivers.append(host)
        self.service = AomConfigService(
            self.sim, self.fabric, self.authority, **(aom_kwargs or {})
        )
        self.service.attach(self.fabric)
        for host in self.receivers:
            ctx = CryptoContext(host.address, self.authority, self.cost).bind(host)
            host.lib = AomReceiverLib(
                host,
                self.config,
                ctx,
                deliver=self._deliver_hook(host),
                deliver_drop=self._drop_hook(host),
                **(lib_kwargs or {}),
            )
            self.service.register_receiver_lib(GROUP_ID, host.address, host.lib)
        self.sequencer = self.service.create_group(
            self.config, [h.address for h in self.receivers]
        )
        self.sender = SenderHost(self.sim, "sender")
        self.sender.attach(self.fabric)
        sender_ctx = CryptoContext(self.sender.address, self.authority, self.cost).bind(
            self.sender
        )
        self.sender_lib = AomSenderLib(self.sender, GROUP_ID, sender_ctx)

    def _deliver_hook(self, host):
        def deliver(cert):
            host.delivered.append((cert.sequence, cert.payload))
            host.certs.append(cert)

        return deliver

    def _drop_hook(self, host):
        def drop(notification):
            host.delivered.append(("drop", notification.sequence))

        return drop

    def multicast(self, payload: str, at: int = None) -> None:
        """Schedule one aom multicast of a string payload."""

        def send():
            self.sender_lib.multicast(payload, payload.encode())

        if at is None:
            self.sender.execute_now(lambda: send())
        else:
            self.sim.schedule(at, self.sender.execute_now, lambda: send())

    def multicast_many(self, count: int, spacing_ns: int = 1_000) -> None:
        """Schedule ``count`` multicasts spaced ``spacing_ns`` apart."""
        for i in range(count):
            self.multicast(f"op{i}", at=spacing_ns * (i + 1))

    def counter(self, name: str, **labels) -> int:
        """Current value of one counter in the rig's metrics registry."""
        return self.sim.metrics.snapshot().counter(name, **labels)

    def deliveries(self) -> List[list]:
        """Per-receiver delivery sequences."""
        return [host.delivered for host in self.receivers]
