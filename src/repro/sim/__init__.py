"""Deterministic discrete-event simulation substrate.

This package provides the execution substrate every other subsystem in the
reproduction runs on: a virtual clock measured in integer nanoseconds, an
event heap with deterministic tie-breaking, actors with queued multi-core
CPU models (so throughput saturation and latency inflation emerge from
queueing rather than being scripted), seeded random streams, and statistics
monitors for latency/throughput measurement, and the metrics registry
every layer counts into.

Nothing in here ever consults wall-clock time; simulations are fully
reproducible given a seed.
"""

from repro.sim.clock import (
    MICROSECOND,
    MILLISECOND,
    NANOSECOND,
    SECOND,
    format_duration,
    ns,
    us,
    ms,
    secs,
)
from repro.sim.engine import EventHandle, Simulator
from repro.sim.actors import Actor, Cpu
from repro.sim.monitor import Histogram, MetricsRegistry, RateMeter
from repro.sim.randomness import RandomStreams

__all__ = [
    "Actor",
    "Cpu",
    "EventHandle",
    "Histogram",
    "MetricsRegistry",
    "MICROSECOND",
    "MILLISECOND",
    "NANOSECOND",
    "RandomStreams",
    "RateMeter",
    "SECOND",
    "Simulator",
    "format_duration",
    "format_duration",
    "ms",
    "ns",
    "secs",
    "us",
]
