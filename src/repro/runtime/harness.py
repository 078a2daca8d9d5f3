"""Measurement harness: warmup/measure windows, sweeps, reporting.

Sweeps over independent ``(options, seed)`` points can be farmed to
worker processes with :func:`run_sweep`'s ``workers`` knob. Each point is
a full build-and-measure in its own process with its own seeded
simulator, so parallel execution is bit-identical to serial execution —
the determinism test suite asserts result-for-result equality.
"""

from __future__ import annotations

import pickle
import random
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.runtime.cluster import Cluster, ClusterOptions, build_cluster
from repro.sim.clock import MICROSECOND, ms, secs
from repro.sim.monitor import Histogram, RateMeter
from repro.telemetry import MetricsSnapshot, Telemetry


@dataclass
class RunResult:
    """Outcome of one measured run."""

    protocol: str
    num_clients: int
    throughput_ops: float  # operations per second of virtual time
    latency: Histogram  # end-to-end client latency (ns), window-gated
    completions: int
    retries: int
    aborted: int = 0  # requests given up after exhausting their retries
    replica_metrics: Dict[str, int] = field(default_factory=dict)
    # End-of-run telemetry snapshot (None when the run had no telemetry).
    metrics: Optional[MetricsSnapshot] = None

    @property
    def median_latency_us(self) -> float:
        return self.latency.median() / MICROSECOND if len(self.latency) else float("nan")

    @property
    def p99_latency_us(self) -> float:
        return self.latency.percentile(99) / MICROSECOND if len(self.latency) else float("nan")

    def row(self) -> str:
        """One printable summary line."""
        return (
            f"{self.protocol:<14} clients={self.num_clients:<4} "
            f"tput={self.throughput_ops/1000:8.1f}K ops/s  "
            f"lat p50={self.median_latency_us:8.1f}us p99={self.p99_latency_us:8.1f}us"
        )


def default_echo_op(rng: random.Random, size: int = 64) -> Callable[[], bytes]:
    """Factory of random echo payload generators (the §6.2 workload).

    Each op draws one 64-bit value from ``rng`` — a single
    ``getrandbits(64)`` call, replacing the previous eight
    ``getrandbits(8)`` calls. The stream consumption and produced bytes
    both changed with that switch; no golden output depends on the
    payload bits (only on their length, which is unchanged).
    """

    def next_op() -> bytes:
        return rng.getrandbits(64).to_bytes(8, "little").ljust(size, b"\x00")

    return next_op


class Measurement:
    """Runs one cluster through warmup + measurement windows."""

    def __init__(
        self,
        cluster: Cluster,
        warmup_ns: int = ms(20),
        duration_ns: int = ms(100),
        next_op: Optional[Callable[[], bytes]] = None,
        per_client_ops: Optional[Dict[int, Callable[[], bytes]]] = None,
        drain_step_ns: int = ms(2),
        drain_deadline_ns: int = ms(20),
        telemetry: Optional[Telemetry] = None,
    ):
        if drain_step_ns <= 0:
            raise ValueError(f"drain_step_ns must be > 0, got {drain_step_ns!r}")
        if drain_deadline_ns < 0:
            raise ValueError(
                f"drain_deadline_ns must be >= 0, got {drain_deadline_ns!r}"
            )
        self.cluster = cluster
        self.warmup_ns = warmup_ns
        self.duration_ns = duration_ns
        self.telemetry = telemetry
        if telemetry is not None:
            cluster.sim.telemetry = telemetry
        self.drain_step_ns = drain_step_ns
        self.drain_deadline_ns = drain_deadline_ns
        self.latency = Histogram("client-latency")
        self.meter = RateMeter()
        rng = cluster.sim.streams.get("workload.echo")
        default = next_op or default_echo_op(rng)
        for index, client in enumerate(cluster.clients):
            if per_client_ops is not None:
                client.next_op = per_client_ops[index]
            else:
                client.next_op = default
            client.on_complete = self._make_hook()

    def _make_hook(self):
        sim = self.cluster.sim

        def hook(request_id: int, latency_ns: int, result: bytes) -> None:
            self.meter.record(sim.now)
            if self.meter.window_start is not None and (
                self.meter.window_end is None or sim.now <= self.meter.window_end
            ):
                if sim.now >= self.meter.window_start:
                    self.latency.record(latency_ns)

        return hook

    def run(self) -> RunResult:
        """Drive the cluster; returns windowed throughput and latency."""
        sim = self.cluster.sim
        for client in self.cluster.clients:
            client.start()
        sim.run_for(self.warmup_ns)
        self.meter.open_window(sim.now)
        sim.run_for(self.duration_ns)
        self.meter.close_window(sim.now)
        self._drain()
        merged_metrics: Dict[str, int] = {}
        for replica in self.cluster.replicas:
            for key, value in replica.metrics.as_dict().items():
                merged_metrics[key] = merged_metrics.get(key, 0) + value
        return RunResult(
            protocol=self.cluster.options.protocol,
            num_clients=len(self.cluster.clients),
            throughput_ops=self.meter.throughput_per_sec(),
            latency=self.latency,
            completions=self.meter.total_completions,
            retries=sum(c.retries for c in self.cluster.clients),
            aborted=sum(c.aborted for c in self.cluster.clients),
            replica_metrics=merged_metrics,
            metrics=(
                self.telemetry.metrics.snapshot() if self.telemetry is not None else None
            ),
        )

    def _drain(self) -> None:
        """Let in-flight requests finish so no client is mid-request when
        callers inspect state afterwards.

        New operations stop being issued for the duration, then the sim
        runs in ``drain_step_ns`` steps until every client is idle or
        ``drain_deadline_ns`` of virtual time has passed — a cluster mid-
        outage (e.g. a chaos campaign that never heals) stays bounded.
        """
        sim = self.cluster.sim
        clients = self.cluster.clients
        saved_ops = [client.next_op for client in clients]
        for client in clients:
            client.next_op = None
        deadline = sim.now + self.drain_deadline_ns
        while any(client.inflight is not None for client in clients) and sim.now < deadline:
            sim.run_for(min(self.drain_step_ns, deadline - sim.now))
        for client, op in zip(clients, saved_ops):
            client.next_op = op


def run_once(
    options: ClusterOptions,
    warmup_ns: int = ms(20),
    duration_ns: int = ms(100),
    next_op: Optional[Callable[[], bytes]] = None,
    telemetry: Optional[Telemetry] = None,
) -> RunResult:
    """Convenience: build + measure in one call."""
    cluster = build_cluster(options)
    measurement = Measurement(
        cluster, warmup_ns, duration_ns, next_op, telemetry=telemetry
    )
    return measurement.run()


def _run_point(
    options: ClusterOptions,
    warmup_ns: int,
    duration_ns: int,
    next_op: Optional[Callable[[], bytes]],
) -> RunResult:
    """One sweep point; module-level so worker processes can unpickle it."""
    return run_once(options, warmup_ns, duration_ns, next_op)


def run_points(
    points: Sequence[ClusterOptions],
    warmup_ns: int = ms(20),
    duration_ns: int = ms(100),
    next_op: Optional[Callable[[], bytes]] = None,
    workers: int = 1,
) -> List[RunResult]:
    """Measure every options point, optionally in parallel worker processes.

    Points are independent by construction — each gets its own simulator
    seeded from its own options — so farming them to a
    ``ProcessPoolExecutor`` returns bit-identical ``RunResult`` objects in
    the same order as serial execution. Falls back to serial when the
    workload cannot be shipped to workers (unpicklable ``next_op``
    closures) or the platform cannot spawn a pool (sandboxes without
    process primitives); results are identical either way.
    """
    points = list(points)
    if workers > 1 and len(points) > 1:
        try:
            pickle.dumps((points, next_op))
        except Exception:
            workers = 1  # closure-bound workload: measure in-process
    if workers <= 1 or len(points) <= 1:
        return [_run_point(options, warmup_ns, duration_ns, next_op) for options in points]
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(points))) as pool:
            futures = [
                pool.submit(_run_point, options, warmup_ns, duration_ns, next_op)
                for options in points
            ]
            return [future.result() for future in futures]
    except (OSError, PermissionError, BrokenProcessPool):
        return [_run_point(options, warmup_ns, duration_ns, next_op) for options in points]


def run_sweep(
    base_options: ClusterOptions,
    client_counts: Optional[Sequence[int]] = None,
    warmup_ns: int = ms(20),
    duration_ns: int = ms(100),
    next_op: Optional[Callable[[], bytes]] = None,
    workers: int = 1,
    seeds: Optional[Sequence[int]] = None,
) -> List[RunResult]:
    """Sweep the cross product of client counts and seeds.

    Results are ordered by client count, then seed. ``workers=N`` farms
    the points to N processes (see :func:`run_points`); the parallel
    result list is asserted bit-identical to serial execution by the
    determinism tests, so benchmarks can enable it unconditionally.
    """
    counts = list(client_counts) if client_counts is not None else [base_options.num_clients]
    seed_list = list(seeds) if seeds is not None else [base_options.seed]
    # dataclasses.replace keeps any future non-field state out of the
    # copy (a raw __dict__ splat resurrects stale attributes).
    points = [
        replace(base_options, num_clients=count, seed=seed)
        for count in counts
        for seed in seed_list
    ]
    return run_points(points, warmup_ns, duration_ns, next_op, workers=workers)


def latency_throughput_sweep(
    base_options: ClusterOptions,
    client_counts: List[int],
    warmup_ns: int = ms(20),
    duration_ns: int = ms(100),
    next_op: Optional[Callable[[], bytes]] = None,
    workers: int = 1,
) -> List[RunResult]:
    """The Figure 7 sweep: one run per closed-loop client count."""
    return run_sweep(
        base_options, client_counts, warmup_ns, duration_ns, next_op, workers=workers
    )


def max_throughput(results: List[RunResult]) -> RunResult:
    """The knee point: highest-throughput run of a sweep."""
    return max(results, key=lambda r: r.throughput_ops)
