"""Per-protocol adversary hooks: what a Byzantine replica can forge.

The Byzantine replica behaviours in :mod:`repro.faults.behaviors` are
protocol-agnostic — they interpose on a replica's send path (see
:meth:`repro.net.endpoint.Endpoint.add_send_interposer`) and consult
the registries here to decide what an adversary holding that replica's
keys could plausibly emit:

- :data:`PROPOSAL_MUTATORS` maps a leader proposal type to a mutator that
  builds a *conflicting* variant for one destination — the equivocating
  primary's per-destination fork. Mutators may use the replica's own key
  material (a Byzantine node signs/MACs whatever it likes with its own
  keys) but never another node's — the crypto boundary the key
  authority enforces.
- :data:`VOTE_TYPES` lists the messages whose absence starves a quorum —
  what a vote-withholder suppresses.

Each protocol family registers its own entries when its package is
imported (next to the message types they name), so this module loads no
family. Protocols without an entry simply yield no-op adversaries (NeoBFT
has no leader proposal to equivocate about; ordering comes from the
sequencer), which keeps the fault-schedule fuzzer free to draw any
behaviour against any protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.crypto.hmacvec import HmacVector

# message type -> fn(replica, dst, message) -> Optional[forged message]
PROPOSAL_MUTATORS: Dict[type, Callable] = {}

# message types whose suppression starves quorum formation
VOTE_TYPES: Tuple[type, ...] = ()


def register_proposal_mutator(message_type: type, mutator: Callable) -> None:
    """Register ``mutator(replica, dst, message)`` for a proposal type."""
    PROPOSAL_MUTATORS[message_type] = mutator


def register_vote_types(*types: type) -> None:
    """Mark message types as quorum votes (withholding targets)."""
    global VOTE_TYPES
    VOTE_TYPES = VOTE_TYPES + tuple(t for t in types if t not in VOTE_TYPES)


def mutate_proposal(replica, dst: int, message: object) -> Optional[object]:
    """A conflicting variant of ``message`` for ``dst``, or None."""
    mutator = PROPOSAL_MUTATORS.get(type(message))
    if mutator is None:
        return None
    return mutator(replica, dst, message)


def is_vote(message: object) -> bool:
    """Whether ``message`` is a quorum vote some adversary may withhold."""
    return isinstance(message, VOTE_TYPES)


def self_auth_for(replica, dst: int, body: bytes) -> HmacVector:
    """A valid single-entry MAC vector under the replica's *own* keys.

    This is the re-authentication step of equivocation: the forged copy
    must pass ``dst``'s point-to-point MAC check, which only needs the
    sender's pairwise key — no foreign key material involved.
    """
    return replica.crypto.mac_vector((dst,), body)


def conflicting_batch(batch: tuple) -> Optional[tuple]:
    """A different-but-well-formed request batch with a distinct digest.

    Reversing keeps every client MAC vector valid; a singleton batch is
    doubled instead (its duplicate still authenticates, and execution-time
    dedupe makes the copy a no-op on correct replicas).
    """
    if not batch:
        return None
    if len(batch) > 1:
        return tuple(reversed(batch))
    return batch + batch
