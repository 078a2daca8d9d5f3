"""Causal request spans and critical-path decomposition.

A :class:`Span` is one timed interval of work attributed to a *trace* —
one client request, keyed ``(client_address, request_id)``. Layers record
spans independently (the fabric records network legs, the sequencer its
queue+auth occupancy, replicas their execution, the client the quorum
wait); virtual time is globally consistent, so the spans of one trace
assemble into a tree by interval containment without any id plumbing
across nodes.

:func:`decompose_trace` turns one trace's spans into an exact
latency decomposition: every nanosecond of the root request span is
attributed to exactly one category (``net`` / ``sequencer`` / ``crypto``
/ ``quorum`` / ``other``), so the segment sum always equals the
end-to-end latency. Where spans overlap (e.g. a straggler's reply leg
during the quorum wait) the most recently started span wins — "what is
this request *currently* waiting on".
"""

from __future__ import annotations

from dataclasses import field
from typing import Any, Dict, List, Optional, Tuple

from repro.records import record
from repro.sim.clock import format_duration

#: One request's identity: (client host address, request id).
TraceKey = Tuple[int, int]

#: Decomposition categories, in report order.
CATEGORIES = ("net", "sequencer", "crypto", "quorum", "client", "other")


@record
class Span:
    """One timed interval of work attributed to a trace."""

    span_id: int
    trace: TraceKey
    name: str
    category: str
    node: str
    start: int
    end: Optional[int] = None  # None while open
    parent_id: Optional[int] = None  # assigned by build_tree (containment)
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[int]:
        return None if self.end is None else self.end - self.start

    def render(self) -> str:
        dur = "open" if self.end is None else format_duration(self.duration)
        return (
            f"[{format_duration(self.start):>12} +{dur:>10}] "
            f"{self.category:<9} {self.name:<22} @{self.node}"
        )


def trace_key_of(message: object, dst: Optional[int] = None) -> Optional[TraceKey]:
    """Extract a trace key from any wire message, duck-typed.

    Handles nested payloads (aom datagrams/packets/certificates wrap a
    ``ClientRequest``), bare client requests (``client_id`` +
    ``request_id``), and client replies (``request_id`` + ``replica``,
    keyed by the destination client address). Returns None for protocol
    traffic that is not attributable to one request (confirms, syncs,
    view changes, ...).
    """
    payload = getattr(message, "payload", None)
    if payload is not None and payload is not message:
        inner = trace_key_of(payload, dst)
        if inner is not None:
            return inner
    request_id = getattr(message, "request_id", None)
    if request_id is None:
        return None
    client_id = getattr(message, "client_id", None)
    if client_id is not None:
        return (client_id, request_id)
    if getattr(message, "replica", None) is not None and dst is not None:
        return (dst, request_id)  # a reply, keyed by its destination client
    return None


class SpanRecorder:
    """Append-only span sink with open-span tracking and a capacity cap."""

    def __init__(self, capacity: int = 1_000_000):
        if capacity < 1:
            raise ValueError(f"span capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.spans: List[Span] = []
        self.dropped = 0
        self._open: Dict[int, Span] = {}
        self._next_id = 1

    def __len__(self) -> int:
        return len(self.spans)

    def _new_span(
        self, trace: TraceKey, name: str, category: str, node: str,
        start: int, end: Optional[int], attrs: Dict[str, Any],
    ) -> Optional[Span]:
        if len(self.spans) >= self.capacity:
            self.dropped += 1
            return None
        span = Span(
            span_id=self._next_id, trace=trace, name=name, category=category,
            node=node, start=start, end=end, attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def record(
        self, trace: TraceKey, name: str, category: str, node: str,
        start: int, end: int, **attrs: Any,
    ) -> Optional[Span]:
        """Record an already-completed interval."""
        return self._new_span(trace, name, category, node, start, end, attrs)

    def begin(
        self, trace: TraceKey, name: str, category: str, node: str,
        start: int, **attrs: Any,
    ) -> Optional[Span]:
        """Open a span to be closed later with :meth:`finish`."""
        span = self._new_span(trace, name, category, node, start, None, attrs)
        if span is not None:
            self._open[span.span_id] = span
        return span

    def finish(self, span: Optional[Span], end: int, **attrs: Any) -> None:
        """Close an open span (no-op on None, so call sites stay branch-free)."""
        if span is None:
            return
        span.end = end
        if attrs:
            span.attrs.update(attrs)
        self._open.pop(span.span_id, None)

    # --------------------------------------------------------------- views

    def orphans(self) -> List[Span]:
        """Spans opened but never finished (requests still in flight, or
        lifecycle bugs — the span tests assert on this)."""
        return list(self._open.values())

    def trace(self, trace: TraceKey) -> List[Span]:
        """All spans of one trace."""
        return [span for span in self.spans if span.trace == trace]

    def render_trace(self, trace: TraceKey) -> str:
        """Indented span tree of one trace (attached to invariant
        violations so a bad commit names its request's whole journey)."""
        spans = self.trace(trace)
        if not spans:
            return ""
        lines = []
        for span, depth in build_tree(spans):
            lines.append("  " * depth + span.render())
        return "\n".join(lines)


def build_tree(spans: List[Span]) -> List[Tuple[Span, int]]:
    """Nest spans by interval containment; returns (span, depth) pairs in
    tree order and assigns ``parent_id`` links.

    Closed spans sort by (start, -end, span_id): an interval that starts
    earlier or extends further is the ancestor. Open spans are listed at
    depth 0 after the closed forest.
    """
    closed = [s for s in spans if s.end is not None]
    open_spans = [s for s in spans if s.end is None]
    closed.sort(key=lambda s: (s.start, -s.end, s.span_id))
    out: List[Tuple[Span, int]] = []
    stack: List[Span] = []
    for span in closed:
        while stack and not (span.start >= stack[-1].start and span.end <= stack[-1].end):
            stack.pop()
        span.parent_id = stack[-1].span_id if stack else None
        out.append((span, len(stack)))
        stack.append(span)
    for span in sorted(open_spans, key=lambda s: (s.start, s.span_id)):
        span.parent_id = None
        out.append((span, 0))
    return out


@record
class TraceDecomposition:
    """Exact per-category split of one request's end-to-end latency."""

    trace: TraceKey
    total: int  # root span duration, ns
    segments: Dict[str, int]  # category -> ns; sums exactly to total

    def share(self, category: str) -> float:
        if self.total <= 0:
            return 0.0
        return self.segments.get(category, 0) / self.total


ROOT_SPAN_NAME = "request"


def decompose_trace(spans: List[Span]) -> Optional[TraceDecomposition]:
    """Critical-path decomposition of one trace's span set.

    The root is the trace's ``request`` span (client submit → quorum
    complete). A sweep over its interval attributes every atomic segment
    to the most recently started covering span's category; uncovered
    time goes to ``other``. Returns None when the trace has no closed
    root (request still in flight or aborted before completing).
    """
    root = None
    for span in spans:
        if span.name == ROOT_SPAN_NAME and span.end is not None:
            if root is None or span.start < root.start:
                root = span
    if root is None or root.end <= root.start:
        return None
    children = []
    for span in spans:
        if span is root or span.end is None:
            continue
        lo = max(span.start, root.start)
        hi = min(span.end, root.end)
        if hi > lo:
            children.append((lo, hi, span))
    points = {root.start, root.end}
    for lo, hi, _ in children:
        points.add(lo)
        points.add(hi)
    ordered = sorted(points)
    segments: Dict[str, int] = {}
    for lo, hi in zip(ordered, ordered[1:]):
        covering = [
            (span.start, span.span_id, span)
            for (clo, chi, span) in children
            if clo <= lo and chi >= hi
        ]
        if covering:
            # Latest-started covering span wins: "what is the request
            # currently waiting on"; span_id breaks exact ties.
            category = max(covering)[2].category
        else:
            category = "other"
        segments[category] = segments.get(category, 0) + (hi - lo)
    return TraceDecomposition(trace=root.trace, total=root.end - root.start, segments=segments)


def decompose_all(spans: List[Span]) -> List[TraceDecomposition]:
    """Decompose every complete trace in a span dump."""
    grouped: Dict[TraceKey, List[Span]] = {}
    for span in spans:
        grouped.setdefault(span.trace, []).append(span)
    out = []
    for trace_spans in grouped.values():
        decomposition = decompose_trace(trace_spans)
        if decomposition is not None:
            out.append(decomposition)
    return out


def median_decomposition(
    decompositions: List[TraceDecomposition],
) -> Optional[TraceDecomposition]:
    """The decomposition of the median-latency request (nearest-rank).

    Because each decomposition's segments sum exactly to its own total,
    this gives a breakdown whose segment sum *is* the median end-to-end
    latency — the property the fig7 telemetry acceptance check relies on.
    """
    if not decompositions:
        return None
    ordered = sorted(decompositions, key=lambda d: d.total)
    return ordered[(len(ordered) - 1) // 2]
