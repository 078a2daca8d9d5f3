"""Network fault helpers over the fabric's perturbation hooks."""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.net.fabric import DuplicateInjector, Fabric, PacketPredicate, ReorderInjector
from repro.net.packet import Packet


def drop_fraction_for(
    fabric: Fabric, dst: Optional[int], fraction: float, rng
) -> Callable[[], None]:
    """Drop a fraction of packets destined for one host (every packet when
    ``dst`` is None); returns remover.

    The draw happens only for packets the filter targets, so a targeted
    drop leaves the stream untouched by other traffic.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"drop fraction must be in [0, 1], got {fraction!r}")

    def predicate(packet: Packet) -> bool:
        return (dst is None or packet.dst == dst) and rng.random() < fraction

    return fabric.add_drop_filter(predicate)


def duplicate_fraction(
    fabric: Fabric,
    fraction: float,
    rng: random.Random,
    extra_delay_ns: int = 500,
    predicate: Optional[PacketPredicate] = None,
) -> Callable[[], None]:
    """Duplicate a fraction of deliveries fabric-wide; returns remover.

    Parameters are validated eagerly (at injector construction), so a
    malformed campaign fails before any virtual time elapses.
    """
    injector = DuplicateInjector(fraction, rng, extra_delay_ns, predicate)
    return fabric.add_duplicator(injector)


def reorder_fraction(
    fabric: Fabric,
    fraction: float,
    max_delay_ns: int,
    rng: random.Random,
    predicate: Optional[PacketPredicate] = None,
) -> Callable[[], None]:
    """Hold back a fraction of deliveries so later packets overtake them."""
    injector = ReorderInjector(fraction, max_delay_ns, rng, predicate)
    return fabric.add_reorderer(injector)


def isolate_host(fabric: Fabric, host: int, peers) -> Callable[[], None]:
    """Partition a host from a set of peers; returns an idempotent healer."""
    return fabric.partition(pair for peer in peers for pair in ((host, peer), (peer, host)))
