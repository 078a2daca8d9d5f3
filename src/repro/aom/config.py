"""The aom configuration service (§4.1, §4.2).

The service owns group membership and sequencer designation. For each
group it:

- creates the sequencer switch (epoch 1) with fresh authentication state:
  per-receiver HMAC keys for aom-hm (standing in for the key-exchange
  protocol run over TLS), or a fresh switch signing identity for aom-pk;
- registers the group address route with the fabric (the BGP
  advertisement of §4.1);
- handles failover: when f+1 distinct receivers report the sequencer
  faulty for the current epoch, it tears the old sequencer down, waits
  out the network reconfiguration delay (the dominant cost the paper
  measured — tens of milliseconds of routing/key updates), then installs
  a new sequencer with epoch + 1 and announces the new
  :class:`~repro.aom.messages.EpochConfig` to every receiver.
"""

from __future__ import annotations

import hashlib
from dataclasses import field
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.aom.messages import (
    AomConfig,
    AuthVariant,
    EpochConfig,
    FailoverRequest,
    switch_identity,
)
from repro.aom.sequencer import AomSequencer
from repro.crypto.backend import KeyAuthority
from repro.crypto.costmodel import CostModel
from repro.net.endpoint import Endpoint
from repro.net.fabric import Fabric
from repro.net.packet import GroupAddress
from repro.records import record
from repro.sim.clock import ms
from repro.sim.engine import Simulator
from repro.switchfab.fpga import FpgaCoprocessor
from repro.switchfab.hmac_pipeline import FoldedHmacPipeline


@record
class GroupState:
    """Book-keeping for one managed aom group."""

    config: AomConfig
    receiver_ids: Tuple[int, ...]
    epoch: int = 0
    sequencer: Optional[AomSequencer] = None
    failover_votes: Dict[int, Set[int]] = field(default_factory=dict)
    failover_in_progress: bool = False
    hmac_keys: Dict[int, bytes] = field(default_factory=dict)


class AomConfigService(Endpoint):
    """The (trusted, per §5.1 standard assumptions) configuration service."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        authority: KeyAuthority,
        cost_model: Optional[CostModel] = None,
        failover_threshold_f: int = 1,
        reconfig_delay_ns: int = ms(60),
        fpga_kwargs: Optional[dict] = None,
        hmac_kwargs: Optional[dict] = None,
    ):
        super().__init__(sim, "aom-config", cost_model=cost_model)
        self.fabric = fabric  # usable before (and regardless of) attach()
        self.authority = authority
        self.failover_threshold_f = failover_threshold_f
        self.reconfig_delay_ns = reconfig_delay_ns
        self.fpga_kwargs = fpga_kwargs or {}
        self.hmac_kwargs = hmac_kwargs or {}
        self._groups: Dict[int, GroupState] = {}
        self._receiver_libs: Dict[Tuple[int, int], object] = {}
        self.failovers_completed = 0

    # ----------------------------------------------------------- membership

    def register_receiver_lib(self, group_id: int, receiver_id: int, lib) -> None:
        """Connect a receiver library for direct epoch installation.

        (Stands in for the TLS join channel; failover re-announcements go
        through the same path after the reconfiguration delay.)
        """
        self._receiver_libs[(group_id, receiver_id)] = lib

    def create_group(self, config: AomConfig, receiver_ids: Sequence[int]) -> AomSequencer:
        """Create a group and install its first sequencer epoch."""
        if config.group_id in self._groups:
            raise ValueError(f"group {config.group_id} already exists")
        state = GroupState(config=config, receiver_ids=tuple(receiver_ids))
        self._groups[config.group_id] = state
        return self._install_epoch(state)

    def sequencer_for(self, group_id: int) -> Optional[AomSequencer]:
        """The currently installed sequencer switch (fault-injection hook)."""
        state = self._groups.get(group_id)
        return state.sequencer if state else None

    def current_epoch(self, group_id: int) -> int:
        """The installed epoch number for a group."""
        return self._groups[group_id].epoch

    # ------------------------------------------------------- epoch install

    def _derive_hmac_key(self, group_id: int, epoch: int, receiver_id: int) -> bytes:
        material = hashlib.sha256(
            b"aom-key/%d/%d/%d" % (group_id, epoch, receiver_id)
        ).digest()
        return material[:8]

    def _install_epoch(self, state: GroupState) -> AomSequencer:
        state.epoch += 1
        epoch = state.epoch
        group_id = state.config.group_id
        identity = switch_identity(group_id, epoch)
        self.authority.register(identity)
        hmac_pipeline = None
        fpga = None
        if state.config.variant == AuthVariant.HMAC:
            state.hmac_keys = {
                rid: self._derive_hmac_key(group_id, epoch, rid)
                for rid in state.receiver_ids
            }
            hmac_pipeline = FoldedHmacPipeline(
                receiver_keys=[(rid, state.hmac_keys[rid]) for rid in state.receiver_ids],
                **self.hmac_kwargs,
            )
        else:
            fpga = FpgaCoprocessor(
                sign=lambda data, _id=identity: self.authority.sign_as(_id, data),
                **self.fpga_kwargs,
            )
        sequencer = AomSequencer(
            sim=self.sim,
            fabric=self.fabric,
            group_id=group_id,
            epoch=epoch,
            variant=state.config.variant,
            receivers=state.receiver_ids,
            switch_address=identity,
            hmac_pipeline=hmac_pipeline,
            fpga=fpga,
        )
        state.sequencer = sequencer
        state.failover_in_progress = False
        if self.fabric is not None:
            self.fabric.register_group(GroupAddress(group_id), sequencer)
        self._announce_epoch(state)
        return sequencer

    def _announce_epoch(self, state: GroupState) -> None:
        group_id = state.config.group_id
        for rid in state.receiver_ids:
            epoch_config = EpochConfig(
                group_id=group_id,
                epoch=state.epoch,
                variant=state.config.variant,
                receiver_ids=state.receiver_ids,
                hmac_key=state.hmac_keys.get(rid, b""),
            )
            lib = self._receiver_libs.get((group_id, rid))
            if lib is not None:
                lib.install_epoch(epoch_config)
            elif self.address is not None:
                self.send(rid, epoch_config)

    # -------------------------------------------------------------- failover

    def on_message(self, src: int, message: object) -> None:
        if isinstance(message, FailoverRequest):
            self.handle_failover_request(message)

    def handle_failover_request(self, request: FailoverRequest) -> None:
        """Count a receiver's vote to replace the current sequencer."""
        state = self._groups.get(request.group_id)
        if state is None or request.epoch != state.epoch or state.failover_in_progress:
            return
        if request.replica not in state.receiver_ids:
            return
        votes = state.failover_votes.setdefault(state.epoch, set())
        votes.add(request.replica)
        if len(votes) >= self.failover_threshold_f + 1:
            self._start_failover(state)

    def _start_failover(self, state: GroupState) -> None:
        state.failover_in_progress = True
        if state.sequencer is not None:
            state.sequencer.fail()  # stop the old epoch immediately
            if self.fabric is not None:
                self.fabric.unregister_group(GroupAddress(state.config.group_id))
        # Network reconfiguration (routing updates + key exchange) dominates
        # failover time; §6.4 measured < 100 ms end to end.
        self.sim.schedule(self.reconfig_delay_ns, self._finish_failover, state)

    def _finish_failover(self, state: GroupState) -> None:
        self._install_epoch(state)
        self.failovers_completed += 1
