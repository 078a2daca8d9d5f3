"""Measurement instruments for experiments.

These are the objects the benchmark harness reads at the end of a run:
latency histograms with exact percentiles, windowed throughput meters,
and the labeled metrics registry every layer counts into.
"""

from __future__ import annotations

import math
from dataclasses import field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.records import record


class Histogram:
    """Exact-sample histogram with percentile queries.

    Samples are stored raw (experiment sizes here are 1e4-1e6 samples, well
    within memory), so percentiles are exact rather than bucketed
    approximations — this matters for reproducing the paper's tight tail
    latency claims (99.9% within 0.7% of median for aom-hm).
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._samples: List[int] = []
        self._sorted = True

    def record(self, value: int) -> None:
        """Add one sample."""
        if self._samples and value < self._samples[-1]:
            self._sorted = False
        self._samples.append(value)

    def extend(self, values: Iterable[int]) -> None:
        """Add many samples."""
        for value in values:
            self.record(value)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    def __len__(self) -> int:
        return len(self._samples)

    def __eq__(self, other: object) -> bool:
        """Same sample multiset (order-insensitive; names don't matter).

        This is what "bit-identical runs" means for a latency histogram:
        every recorded value equal, pair for pair. Used by the sweep
        determinism tests to compare serial vs parallel ``RunResult``s.
        """
        if not isinstance(other, Histogram):
            return NotImplemented
        if len(self._samples) != len(other._samples):
            return False
        self._ensure_sorted()
        other._ensure_sorted()
        return self._samples == other._samples

    __hash__ = None  # mutable container semantics

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    def percentile(self, p: float) -> int:
        """Exact p-th percentile (0 <= p <= 100), nearest-rank."""
        if not self._samples:
            raise ValueError(f"histogram {self.name!r} is empty")
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        self._ensure_sorted()
        if p == 0:
            return self._samples[0]
        rank = max(1, math.ceil(p / 100.0 * len(self._samples)))
        return self._samples[min(rank - 1, len(self._samples) - 1)]

    def median(self) -> int:
        """50th percentile."""
        return self.percentile(50.0)

    def mean(self) -> float:
        """Arithmetic mean of samples."""
        if not self._samples:
            raise ValueError(f"histogram {self.name!r} is empty")
        return sum(self._samples) / len(self._samples)

    def stddev(self) -> float:
        """Population standard deviation of samples."""
        if not self._samples:
            raise ValueError(f"histogram {self.name!r} is empty")
        mean = self.mean()
        variance = sum((s - mean) ** 2 for s in self._samples) / len(self._samples)
        return math.sqrt(variance)

    def summary(self) -> Dict[str, float]:
        """count/mean/stddev/p50/p99/p99.9/max in one dict (the shape the
        telemetry exporters serialize)."""
        if not self._samples:
            return {"count": 0}
        return {
            "count": len(self._samples),
            "mean": self.mean(),
            "stddev": self.stddev(),
            "p50": float(self.percentile(50)),
            "p99": float(self.percentile(99)),
            "p999": float(self.percentile(99.9)),
            "max": float(self.maximum()),
        }

    def minimum(self) -> int:
        """Smallest sample."""
        self._ensure_sorted()
        return self._samples[0]

    def maximum(self) -> int:
        """Largest sample."""
        self._ensure_sorted()
        return self._samples[-1]

    def cdf(self, points: int = 100) -> List[Tuple[int, float]]:
        """Return (value, cumulative_fraction) pairs for plotting a CDF."""
        if not self._samples:
            return []
        self._ensure_sorted()
        n = len(self._samples)
        step = max(1, n // points)
        out = []
        for i in range(0, n, step):
            out.append((self._samples[i], (i + 1) / n))
        if out[-1][0] != self._samples[-1]:
            out.append((self._samples[-1], 1.0))
        return out


class RateMeter:
    """Counts completions inside a measurement window to compute throughput."""

    def __init__(self):
        self.window_start: Optional[int] = None
        self.window_end: Optional[int] = None
        self.completions = 0
        self.total_completions = 0

    def open_window(self, now: int) -> None:
        """Begin counting (call after warmup).

        Reusable: reopening after a ``close_window`` clears the previous
        window's end, so a meter can measure several disjoint windows
        (e.g. before/after a failover) without a stale bound silently
        discarding every completion of the new window.
        """
        self.window_start = now
        self.window_end = None
        self.completions = 0

    def close_window(self, now: int) -> None:
        """Stop counting."""
        self.window_end = now

    def record(self, now: int) -> None:
        """Record one completion at virtual time ``now``."""
        self.total_completions += 1
        if self.window_start is None or now < self.window_start:
            return
        if self.window_end is not None and now > self.window_end:
            return
        self.completions += 1

    def throughput_per_sec(self) -> float:
        """Completions per second of virtual time inside the window."""
        if self.window_start is None or self.window_end is None:
            raise ValueError("measurement window was never closed")
        elapsed = self.window_end - self.window_start
        if elapsed <= 0:
            return 0.0
        return self.completions * 1e9 / elapsed


MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def metric_key(name: str, labels: Dict[str, str]) -> MetricKey:
    """Canonical dictionary key for one instrument."""
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def format_key(key: MetricKey) -> str:
    """Human-readable ``name{k=v,...}`` rendering."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class CounterScope:
    """One owner's counters: every name under one prefix and label set.

    ``add("sent")`` on the scope ``("net.", host="a")`` counts
    ``net.sent{host=a}``. The labels were canonicalized once, when the
    registry handed the scope out, so :meth:`add` is one dict update.
    """

    __slots__ = ("counts",)

    def __init__(self):
        self.counts: Dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        """Increment ``name`` by ``amount``."""
        counts = self.counts
        counts[name] = counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never incremented)."""
        return self.counts.get(name, 0)


class MetricsRegistry:
    """Every count, gauge and histogram of one run (``Simulator.metrics``).

    Counters are always on. Gauges and histograms resolve their labels per
    sample, so callers record them only while a ``Telemetry`` is attached.
    Names carry their layer as a prefix (``sim.``, ``net.``, ``switch.``,
    ``aom.``, ``crypto.``, ``replica.``, ``client.``). Recording never
    touches the simulator, so it cannot perturb an execution.
    """

    def __init__(self):
        self._scopes: Dict[MetricKey, CounterScope] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}

    def scope(self, prefix: str, **labels: str) -> CounterScope:
        """The counter scope for ``prefix`` and ``labels`` (shared by equal ones)."""
        key = metric_key(prefix, labels)
        scope = self._scopes.get(key)
        if scope is None:
            scope = self._scopes[key] = CounterScope()
        return scope

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set a gauge to its latest observed value."""
        self._gauges[metric_key(name, labels)] = value

    def observe(self, name: str, value: int, **labels: str) -> None:
        """Record one histogram sample."""
        key = metric_key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram(format_key(key))
        hist.record(value)

    def snapshot(self) -> "MetricsSnapshot":
        """Immutable view of every instrument (histograms as summaries)."""
        return MetricsSnapshot(
            counters={
                (prefix + name, labels): value
                for (prefix, labels), scope in self._scopes.items()
                for name, value in scope.counts.items()
            },
            gauges=dict(self._gauges),
            histograms={
                key: hist.summary() for key, hist in self._histograms.items() if len(hist)
            },
        )


@record
class MetricsSnapshot:
    """Point-in-time copy of a registry, attached to ``RunResult``."""

    counters: Dict[MetricKey, float] = field(default_factory=dict)
    gauges: Dict[MetricKey, float] = field(default_factory=dict)
    # name -> Histogram.summary() dict (count/mean/p50/p99/p999/max/...)
    histograms: Dict[MetricKey, Dict[str, float]] = field(default_factory=dict)

    def counter(self, name: str, default: float = 0, **labels: str) -> float:
        return self.counters.get(metric_key(name, labels), default)

    def gauge(self, name: str, default: Optional[float] = None, **labels: str) -> Optional[float]:
        return self.gauges.get(metric_key(name, labels), default)

    def histogram_summary(self, name: str, **labels: str) -> Optional[Dict[str, float]]:
        return self.histograms.get(metric_key(name, labels))

    def names(self) -> List[str]:
        seen = {key[0] for key in self.counters}
        seen.update(key[0] for key in self.gauges)
        seen.update(key[0] for key in self.histograms)
        return sorted(seen)

    def names_with_prefix(self, prefix: str) -> List[str]:
        """Metric names under one layer prefix (e.g. ``"net."``)."""
        return [name for name in self.names() if name.startswith(prefix)]
