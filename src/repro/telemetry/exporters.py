"""Telemetry exporters: Chrome trace-event JSON, Prometheus text, JSONL.

Each writer has a matching loader (``load_chrome_trace``,
``parse_prometheus``, ``load_spans_jsonl``) used by the tests and the CI
smoke job to validate exported artifacts without external tooling. The
Chrome export follows the trace-event format's ``"X"`` (complete) events
with microsecond timestamps over virtual time, so a run opens directly
in Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, TextIO, Tuple

from repro.sim.monitor import MetricKey, MetricsSnapshot
from repro.telemetry.spans import Span, TraceKey

# --------------------------------------------------------------- Chrome trace


def to_chrome_trace(spans: List[Span]) -> Dict[str, Any]:
    """Render spans as a Chrome trace-event JSON object.

    Virtual nanoseconds become the format's microsecond floats. Each
    recording node maps to one thread (with a ``thread_name`` metadata
    event) under a single process, so Perfetto's timeline groups work by
    where it ran; the trace key lands in ``args`` for filtering.
    """
    nodes = sorted({span.node for span in spans})
    tids = {node: index + 1 for index, node in enumerate(nodes)}
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro (virtual time)"},
        }
    ]
    for node, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": node},
            }
        )
    for span in spans:
        if span.end is None:
            continue
        args: Dict[str, Any] = {
            "trace": list(span.trace),
            "span_id": span.span_id,
        }
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start / 1_000,
                "dur": (span.end - span.start) / 1_000,
                "pid": 1,
                "tid": tids[span.node],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(spans: List[Span], fp: TextIO) -> None:
    json.dump(to_chrome_trace(spans), fp, indent=1)


def load_chrome_trace(fp: TextIO) -> List[Dict[str, Any]]:
    """Parse and validate a Chrome trace file; returns the "X" events.

    Raises ValueError on structural problems (the checks the CI smoke
    job relies on): missing traceEvents, events without required fields,
    negative durations, or thread ids with no thread_name metadata.
    """
    doc = json.load(fp)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a Chrome trace: missing traceEvents")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    named_tids = set()
    complete: List[Dict[str, Any]] = []
    for event in events:
        ph = event.get("ph")
        if ph == "M":
            if event.get("name") == "thread_name":
                named_tids.add((event.get("pid"), event.get("tid")))
            continue
        if ph != "X":
            raise ValueError(f"unexpected event phase {ph!r}")
        for required in ("name", "cat", "ts", "dur", "pid", "tid"):
            if required not in event:
                raise ValueError(f"complete event missing {required!r}: {event}")
        if event["dur"] < 0:
            raise ValueError(f"negative duration in {event['name']!r}")
        if (event["pid"], event["tid"]) not in named_tids:
            raise ValueError(
                f"event {event['name']!r} on unnamed thread {event['tid']}"
            )
        complete.append(event)
    return complete


# ---------------------------------------------------------------- Prometheus


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_labels(labels: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


#: Histogram summary stats exported as Prometheus quantile samples.
_QUANTILES = (("p50", "0.5"), ("p99", "0.99"), ("p999", "0.999"))


def to_prometheus(snapshot: MetricsSnapshot) -> str:
    """Render a metrics snapshot in the Prometheus text exposition format.

    Counters and gauges map directly; histogram summaries become
    ``summary``-typed families with quantile samples plus ``_sum`` and
    ``_count``. Metric-name dots become underscores per the format.
    """
    lines: List[str] = []

    def family(keys: List[MetricKey], kind: str, emit) -> None:
        by_name: Dict[str, List[MetricKey]] = {}
        for key in keys:
            by_name.setdefault(key[0], []).append(key)
        for name in sorted(by_name):
            prom = _prom_name(name)
            lines.append(f"# TYPE {prom} {kind}")
            for key in sorted(by_name[name]):
                emit(prom, key)

    def emit_counter(prom: str, key: MetricKey) -> None:
        lines.append(f"{prom}{_prom_labels(key[1])} {snapshot.counters[key]:g}")

    def emit_gauge(prom: str, key: MetricKey) -> None:
        lines.append(f"{prom}{_prom_labels(key[1])} {snapshot.gauges[key]:g}")

    def emit_summary(prom: str, key: MetricKey) -> None:
        stats = snapshot.histograms[key]
        for stat, quantile in _QUANTILES:
            if stat in stats:
                quantile_label = 'quantile="%s"' % quantile
                lines.append(
                    f"{prom}{_prom_labels(key[1], quantile_label)} {stats[stat]:g}"
                )
        lines.append(
            f"{prom}_sum{_prom_labels(key[1])} {stats['mean'] * stats['count']:g}"
        )
        lines.append(f"{prom}_count{_prom_labels(key[1])} {stats['count']:g}")

    family(list(snapshot.counters), "counter", emit_counter)
    family(list(snapshot.gauges), "gauge", emit_gauge)
    family(list(snapshot.histograms), "summary", emit_summary)
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse Prometheus exposition text back into samples.

    Returns ``{metric_name: [(labels_dict, value), ...]}``. Validates
    the line grammar strictly enough to catch a broken exporter (the CI
    smoke job feeds its artifact back through this).
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        body, _, value_text = line.rpartition(" ")
        if not body:
            raise ValueError(f"line {lineno}: no metric/value split: {raw!r}")
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(f"line {lineno}: bad value {value_text!r}") from None
        labels: Dict[str, str] = {}
        if body.endswith("}"):
            name, _, label_text = body.partition("{")
            label_text = label_text[:-1]
            for part in filter(None, label_text.split(",")):
                key, eq, val = part.partition("=")
                if eq != "=" or not (val.startswith('"') and val.endswith('"')):
                    raise ValueError(f"line {lineno}: bad label {part!r}")
                labels[key] = val[1:-1]
        else:
            name = body
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"line {lineno}: bad metric name {name!r}")
        samples.setdefault(name, []).append((labels, value))
    return samples


# --------------------------------------------------------------- JSONL spans


def spans_to_jsonl(spans: List[Span], fp: TextIO) -> int:
    """Write one JSON object per span; returns the number written."""
    count = 0
    for span in spans:
        record = {
            "span_id": span.span_id,
            "trace": list(span.trace),
            "name": span.name,
            "category": span.category,
            "node": span.node,
            "start": span.start,
            "end": span.end,
            "parent_id": span.parent_id,
            "attrs": span.attrs,
        }
        fp.write(json.dumps(record) + "\n")
        count += 1
    return count


def load_spans_jsonl(fp: TextIO) -> List[Span]:
    """Load a JSONL span dump back into Span objects (round-trip of
    :func:`spans_to_jsonl`; powers ``python -m repro.telemetry.report``)."""
    spans: List[Span] = []
    for lineno, line in enumerate(fp, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: invalid JSON: {exc}") from None
        try:
            trace_raw = record["trace"]
            trace: TraceKey = (trace_raw[0], trace_raw[1])
            spans.append(
                Span(
                    span_id=record["span_id"],
                    trace=trace,
                    name=record["name"],
                    category=record["category"],
                    node=record["node"],
                    start=record["start"],
                    end=record.get("end"),
                    parent_id=record.get("parent_id"),
                    attrs=record.get("attrs", {}),
                )
            )
        except (KeyError, IndexError, TypeError) as exc:
            raise ValueError(f"line {lineno}: bad span record: {exc}") from None
    return spans
