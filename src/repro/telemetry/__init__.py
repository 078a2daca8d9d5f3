"""Unified telemetry: labeled metrics, causal request spans, exporters.

Counters are always on, in the simulator's registry ``Simulator.metrics``
(:class:`MetricsRegistry`). Spans, gauges and histograms are recorded
only while a :class:`Telemetry` is attached as ``sim.telemetry``
(default ``None``); each such hook guards on that attribute, so a run
without telemetry pays one None check per hook. Recording never
schedules events, charges CPU, or draws randomness, so attaching
telemetry cannot change what a deterministic run does; it only watches.

The usual entry point is the harness knob::

    from repro.telemetry import Telemetry
    result = run_once(options, telemetry=Telemetry())
    result.metrics.counter("aom.delivered", node="replica-0")

See ``docs/observability.md`` for the metric catalog and span semantics.
"""

from __future__ import annotations

from typing import List, TextIO

from repro.sim.monitor import (
    CounterScope,
    MetricKey,
    MetricsRegistry,
    MetricsSnapshot,
    format_key,
    metric_key,
)
from repro.telemetry.spans import (
    CATEGORIES,
    Span,
    SpanRecorder,
    TraceDecomposition,
    TraceKey,
    build_tree,
    decompose_all,
    decompose_trace,
    median_decomposition,
    trace_key_of,
)

__all__ = [
    "Telemetry",
    "CounterScope",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MetricKey",
    "metric_key",
    "format_key",
    "Span",
    "SpanRecorder",
    "TraceKey",
    "TraceDecomposition",
    "CATEGORIES",
    "trace_key_of",
    "build_tree",
    "decompose_trace",
    "decompose_all",
    "median_decomposition",
]


class Telemetry:
    """One run's span recorder; while attached, gauges and histograms
    are recorded into ``Simulator.metrics`` too."""

    def __init__(self):
        self.spans = SpanRecorder()

    def span_list(self) -> List[Span]:
        """All recorded spans."""
        return list(self.spans.spans)

    # ------------------------------------------------------------- exports

    def write_chrome_trace(self, fp: TextIO) -> None:
        """Chrome trace-event JSON of every recorded span."""
        from repro.telemetry.exporters import write_chrome_trace

        write_chrome_trace(self.span_list(), fp)

    def write_spans_jsonl(self, fp: TextIO) -> int:
        """JSONL span dump (input of ``python -m repro.telemetry.report``)."""
        from repro.telemetry.exporters import spans_to_jsonl

        return spans_to_jsonl(self.span_list(), fp)
