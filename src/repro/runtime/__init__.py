"""Experiment runtime: cluster construction and measurement harness.

:func:`~repro.runtime.cluster.build_cluster` assembles a full system —
fabric, crypto authority, replicas for the chosen protocol, aom groups
where applicable, closed-loop clients — from one options record, and
:class:`~repro.runtime.harness.Measurement` runs warmup/measure windows
and reports throughput and latency percentiles. Every figure bench in
``benchmarks/`` is a thin loop over these two.
"""

from repro.runtime.cluster import Cluster, ClusterOptions, build_cluster
from repro.runtime.harness import (
    Measurement,
    RunResult,
    run_once,
    run_points,
    run_sweep,
)

__all__ = [
    "Cluster",
    "ClusterOptions",
    "Measurement",
    "RunResult",
    "build_cluster",
    "run_once",
    "run_points",
    "run_sweep",
]
