"""Latency/bandwidth/loss profiles for the simulated fabric.

Defaults model the paper's testbed: 100 Gbps Mellanox CX-5 NICs, one
Tofino ToR, sub-rack cabling. One-way host-to-host delay lands around
2-3 µs for small packets, matching contemporary kernel-bypass
measurements on that class of hardware.
"""

from __future__ import annotations

from dataclasses import replace

from repro.records import record
from repro.sim.clock import ns, us


@record(frozen=True)
class LinkProfile:
    """One direction of a host<->switch cable."""

    latency_ns: int = ns(500)  # propagation + PHY + NIC pipeline
    bandwidth_gbps: float = 100.0
    jitter_ns: int = ns(80)

    def serialization_ns(self, size_bytes: int) -> int:
        """Time to clock ``size_bytes`` onto the wire at link rate."""
        return int(size_bytes * 8 / self.bandwidth_gbps)


@record(frozen=True)
class NetworkProfile:
    """Whole-fabric parameters."""

    link: LinkProfile = LinkProfile()
    switch_forward_ns: int = ns(600)  # ToR pipeline traversal
    drop_rate: float = 0.0  # uniform loss probability per packet

    def one_way_ns(self, size_bytes: int) -> int:
        """Deterministic part of host->host one-way delay."""
        return (
            2 * self.link.latency_ns
            + 2 * self.link.serialization_ns(size_bytes)
            + self.switch_forward_ns
        )

    def with_drop_rate(self, rate: float) -> "NetworkProfile":
        """Copy of this profile with a different uniform loss rate."""
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"drop rate out of range: {rate}")
        return replace(self, drop_rate=rate)


#: Intra-rack profile used by all headline experiments.
DEFAULT_PROFILE = NetworkProfile()

#: A lossy profile for drop-resilience sweeps (Figure 9 uses with_drop_rate).
LOSSY_PROFILE = NetworkProfile(drop_rate=0.001)

#: Wide-area-ish profile for the geo-distributed extension experiments.
WAN_PROFILE = NetworkProfile(
    link=LinkProfile(latency_ns=us(250), bandwidth_gbps=10.0, jitter_ns=us(20)),
    switch_forward_ns=us(2),
)
