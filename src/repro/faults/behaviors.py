"""Byzantine replica behaviours.

Every behaviour is one or two interposers on a live replica's
:class:`~repro.net.endpoint.Endpoint` chains
(:meth:`~repro.net.endpoint.Endpoint.add_receive_interposer`,
:meth:`~repro.net.endpoint.Endpoint.add_send_interposer`), and returns
the function that removes exactly its own entries. Overlapping faults on
one replica therefore heal independently, in any order. They never touch
key material — a Byzantine node can lie, stay silent, or garble its own
traffic, but it cannot forge other nodes' authenticators (that is the
crypto boundary the key authority enforces).

Two families:

- **availability faults**: silent and slow interpose on receive, crash
  on both paths, and reply corruption on send;
- **active adversaries** (equivocating primary, stale-view replayer,
  corrupt-MAC sender, vote withholder) interpose on send and use the
  per-protocol forgery hooks in :mod:`repro.protocols.adversary` — the
  attacks NeoBFT's (and the baselines') quorum logic is defending
  against, exercised across pbft/zyzzyva/minbft/hotstuff/neobft alike.
"""

from __future__ import annotations

import random
from dataclasses import replace as dataclass_replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.crypto.hmacvec import HmacVector
from repro.protocols import adversary
from repro.protocols.messages import ClientReply


def make_silent(replica) -> Callable[[], None]:
    """Crash-style Byzantine behaviour: drop all inbound messages.

    Returns an undo function (the replica "recovers" when called).
    """

    def muted(src: int, message: object) -> None:
        replica.metrics.add("byzantine_dropped")

    return replica.add_receive_interposer(muted)


def corrupt_replies(replica) -> Callable[[], None]:
    """Reply-corruption behaviour: flip result bytes in client replies.

    Clients must reject the corrupted reply (bad MAC match against the
    quorum) — the safety tests assert corrupted results never win.
    """

    def tamper(dst: int, message: object) -> object:
        if isinstance(message, ClientReply):
            replica.metrics.add("byzantine_corrupted")
            # The stale tag no longer matches the result: fails verification.
            return dataclass_replace(message, result=b"\xff" + message.result)
        return message

    return replica.add_send_interposer(tamper)


def crash_replica(replica) -> Callable[[], None]:
    """Fail-stop crash: the replica neither receives nor sends while down.

    Unlike :func:`make_silent` (a Byzantine node that stays attached but
    ignores traffic), a crashed node is fully dark: inbound messages are
    dropped and nothing it produces — including timer-driven view-change
    or suspicion traffic — leaves the host.

    Returns a recover function. Recovery restores both paths and, when the
    replica supports it (NeoBFT), replays state transfer from its peers so
    the node catches up on the slots it slept through instead of grinding
    them out one gap agreement at a time.
    """

    def dark_receive(src: int, message: object) -> None:
        replica.metrics.add("crash_dropped")

    def dark_send(dst: int, message: object) -> None:
        replica.metrics.add("crash_suppressed")

    removers = [
        replica.add_receive_interposer(dark_receive),
        replica.add_send_interposer(dark_send),
    ]

    def recover() -> None:
        if not removers:
            return  # double-recover is a no-op
        while removers:
            removers.pop()()
        replica.metrics.add("crash_recoveries")
        replay = getattr(replica, "request_state_transfer", None)
        if replay is not None:
            replica.execute_now(replay)

    return recover


def equivocate_primary(
    replica, victims: Optional[Iterable[int]] = None
) -> Callable[[], None]:
    """Equivocating primary: conflicting proposals per destination.

    Whenever the replica leads and emits a proposal (pre-prepare,
    order-req, hotstuff prepare, minbft prepare), destinations in
    ``victims`` receive a *conflicting* variant — a different
    self-consistent batch, re-authenticated under the replica's own keys
    where the protocol MACs proposals (see
    :mod:`repro.protocols.adversary` for the per-protocol forgeries).
    Default victims: every other peer, so the fork splits the quorum.

    Correct protocols must either reject the fork outright (MinBFT's
    USIG, Zyzzyva's history chain) or stall the slot and view-change
    away from the primary (PBFT) — never commit both sides.
    """
    if victims is None:
        victims = replica.peers()[1::2]
    victim_set = frozenset(victims)

    def interpose(dst: int, message: object) -> Optional[object]:
        if dst in victim_set:
            forged = adversary.mutate_proposal(replica, dst, message)
            if forged is not None:
                replica.metrics.add("byzantine_equivocations")
                return forged
        return message

    return replica.add_send_interposer(interpose)


def replay_stale_views(replica, capacity: int = 16) -> Callable[[], None]:
    """Stale-view replayer: re-send verbatim messages from older views.

    The replayed copies carry *valid* authenticators (they are byte-level
    replays of the replica's own earlier traffic), so receivers must
    reject them on view/sequence grounds, not crypto — exactly the
    stale-message discipline view-change code paths are meant to enforce.
    Buffers up to ``capacity`` view-stamped messages per destination.
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be > 0, got {capacity!r}")
    buffers: Dict[int, List[Tuple[object, object]]] = {}
    replaying = [False]

    def interpose(dst: int, message: object) -> Optional[object]:
        view = getattr(message, "view", None)
        if view is None or replaying[0]:
            return message
        buffer = buffers.setdefault(dst, [])
        stale_index = next(
            (
                i
                for i, (v, _) in enumerate(buffer)
                if type(v) is type(view) and v < view
            ),
            None,
        )
        if stale_index is not None:
            _, stale = buffer.pop(stale_index)
            replica.metrics.add("byzantine_stale_replays")
            replaying[0] = True
            try:
                replica.send(dst, stale)
            finally:
                replaying[0] = False
        buffer.append((view, message))
        del buffer[:-capacity]
        return message

    return replica.add_send_interposer(interpose)


def corrupt_macs(
    replica, fraction: float = 1.0, rng: Optional[random.Random] = None
) -> Callable[[], None]:
    """Corrupt-MAC sender: flip the authenticator vector on outbound traffic.

    Every MAC-vector-authenticated protocol message leaves with garbled
    tags (each byte inverted), so every receiver's verification must fail
    and the message must be discarded without side effects. ``fraction``
    < 1 garbles a random subset (draws from ``rng``, a seeded stream).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
    if fraction < 1.0 and rng is None:
        raise ValueError("fraction < 1 needs an rng")

    def interpose(dst: int, message: object) -> Optional[object]:
        auth = getattr(message, "auth", None)
        if not isinstance(auth, HmacVector):
            return message
        if fraction < 1.0 and rng.random() >= fraction:
            return message
        garbled = HmacVector(auth.ids, bytes([b ^ 0xFF for b in auth.packed]))
        replica.metrics.add("byzantine_bad_macs")
        return dataclass_replace(message, auth=garbled)

    return replica.add_send_interposer(interpose)


def withhold_votes(replica) -> Callable[[], None]:
    """Vote withholder: suppress the replica's quorum votes.

    Drops every outbound message registered as a quorum vote
    (:data:`repro.protocols.adversary.VOTE_TYPES`) — prepares/commits,
    threshold shares, gap votes — while leaving proposals, replies, and
    forwarding intact. With at most ``f`` withholders the remaining
    ``2f+1`` correct voters must still form every quorum.
    """

    def interpose(dst: int, message: object) -> Optional[object]:
        if adversary.is_vote(message):
            replica.metrics.add("byzantine_withheld")
            return None
        return message

    return replica.add_send_interposer(interpose)


def delay_everything(replica, delay_ns: int) -> Callable[[], None]:
    """Slow-replica behaviour: add fixed processing delay to every message."""

    def slow(src: int, message: object) -> object:
        replica.charge(delay_ns)
        return message

    return replica.add_receive_interposer(slow)
