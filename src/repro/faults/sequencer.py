"""Sequencer (in-network) faults for the aom layer."""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, Optional

if TYPE_CHECKING:
    from repro.aom.messages import AomPacket
    from repro.aom.sequencer import AomSequencer


def fail_sequencer(sequencer: AomSequencer) -> Callable[[], None]:
    """Crash the sequencer (drops everything); returns a recovery function.

    This is the §6.4 failover experiment's fault: the paper simulated it
    "by dropping aom packets on the switch".
    """
    sequencer.fail()
    return sequencer.recover


def flap_sequencer(
    sim, sequencer: AomSequencer, down_ns: int, up_ns: int
) -> Callable[[], None]:
    """Intermittent sequencer: alternates failed/recovered phases.

    Starts with a failure immediately, recovers after ``down_ns``, fails
    again after ``up_ns``, and so on — the gray-failure middle ground
    between a clean §6.4 crash (long silence triggers failover) and a
    healthy switch. Short flaps exercise drop detection and gap agreement
    without ever tripping the failover threshold.

    Returns a stop function that ends the flapping and leaves the
    sequencer recovered (safe to call more than once).
    """
    if down_ns <= 0:
        raise ValueError(f"down_ns must be > 0, got {down_ns!r}")
    if up_ns <= 0:
        raise ValueError(f"up_ns must be > 0, got {up_ns!r}")
    stopped = [False]

    def fail_phase() -> None:
        if stopped[0]:
            return
        sequencer.fail()
        sim.schedule(down_ns, recover_phase)

    def recover_phase() -> None:
        if stopped[0]:
            return
        sequencer.recover()
        sim.schedule(up_ns, fail_phase)

    fail_phase()

    def stop() -> None:
        if stopped[0]:
            return
        stopped[0] = True
        sequencer.recover()

    return stop


def equivocate_sequencer(
    sequencer: AomSequencer, split: Dict[int, bytes], forge_auth: bool = True
) -> Callable[[], None]:
    """Byzantine sequencer: send conflicting payload digests per receiver.

    ``split`` maps receiver address -> substitute digest for that
    receiver's copy. Receivers outside the map get the original packet.

    With ``forge_auth`` (the realistic Byzantine-switch model) the forged
    copy carries *valid* HMAC tags — the switch holds every receiver's
    key, so equivocation passes point-to-point authentication. This is
    precisely the attack the hybrid fault model cannot tolerate and the
    Byzantine-network mode's 2f+1 confirm quorum exists to stop.
    """

    def behaviour(receiver: int, packet: AomPacket) -> Optional[AomPacket]:
        substitute = split.get(receiver)
        if substitute is None:
            return packet
        forged = replace(packet, digest=substitute)
        if forge_auth and sequencer.hmac_pipeline is not None:
            partial = packet.auth
            subgroup = sequencer.hmac_pipeline.subgroups[partial.subgroup_index]
            from repro.crypto.hmacvec import HmacVector, mac_with
            from repro.switchfab.hmac_pipeline import PartialVector

            forged_input = forged.auth_input()
            forged_vector = HmacVector(
                partial.vector.ids,
                b"".join([mac_with(state, forged_input) for _, state in subgroup]),
            )
            forged = replace(
                forged,
                auth=PartialVector(
                    subgroup_index=partial.subgroup_index,
                    total_subgroups=partial.total_subgroups,
                    vector=forged_vector,
                ),
            )
        return forged

    sequencer.equivocation = behaviour

    def restore() -> None:
        sequencer.equivocation = None

    return restore
