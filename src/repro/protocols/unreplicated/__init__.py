"""Unreplicated baseline: one server, no fault tolerance.

The "Unreplicated" series in Figures 7 and 10 — the upper bound any
replication protocol is paying against.
"""

from repro.protocols.unreplicated.node import UnreplicatedServer

__all__ = ["UnreplicatedServer"]
