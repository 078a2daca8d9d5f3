"""Span lifecycle, tree building, and critical-path decomposition."""

import pytest

from repro.telemetry.spans import (
    Span,
    SpanRecorder,
    build_tree,
    decompose_all,
    decompose_trace,
    median_decomposition,
    trace_key_of,
)

TRACE = (100, 1)


class TestSpanLifecycle:
    def test_record_completed(self):
        rec = SpanRecorder()
        span = rec.record(TRACE, "net.deliver", "net", "fabric", 10, 25)
        assert span.duration == 15
        assert len(rec) == 1
        assert rec.orphans() == []

    def test_begin_finish(self):
        rec = SpanRecorder()
        span = rec.begin(TRACE, "request", "client", "client-0", 5)
        assert span.end is None
        assert rec.orphans() == [span]
        rec.finish(span, 50, aborted=False)
        assert span.end == 50
        assert span.attrs["aborted"] is False
        assert rec.orphans() == []

    def test_orphan_detection(self):
        rec = SpanRecorder()
        rec.begin(TRACE, "request", "client", "client-0", 5)
        done = rec.record(TRACE, "net.deliver", "net", "fabric", 6, 9)
        orphans = rec.orphans()
        assert len(orphans) == 1
        assert orphans[0].name == "request"
        assert done not in orphans

    def test_finish_none_is_noop(self):
        rec = SpanRecorder()
        rec.finish(None, 99)  # capacity-dropped span at a call site
        assert len(rec) == 0

    def test_capacity_drops_and_counts(self):
        rec = SpanRecorder(capacity=2)
        assert rec.record(TRACE, "a", "net", "n", 0, 1) is not None
        assert rec.record(TRACE, "b", "net", "n", 1, 2) is not None
        assert rec.record(TRACE, "c", "net", "n", 2, 3) is None
        assert rec.dropped == 1
        assert len(rec) == 2

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)


class TestTraceKeyExtraction:
    def test_client_request_like(self):
        class Req:
            client_id = 7
            request_id = 3

        assert trace_key_of(Req()) == (7, 3)

    def test_nested_payload(self):
        class Req:
            client_id = 7
            request_id = 3

        class Datagram:
            payload = Req()

        assert trace_key_of(Datagram()) == (7, 3)

    def test_reply_keyed_by_destination(self):
        class Reply:
            request_id = 9
            replica = 2

        assert trace_key_of(Reply(), dst=55) == (55, 9)
        assert trace_key_of(Reply()) is None  # no dst: not attributable

    def test_unattributable_returns_none(self):
        class ViewChange:
            view = 4

        assert trace_key_of(ViewChange()) is None


class TestBuildTree:
    def test_containment_nesting(self):
        root = Span(1, TRACE, "request", "client", "c", 0, 100)
        mid = Span(2, TRACE, "switch.sequence", "sequencer", "s", 10, 40)
        leaf = Span(3, TRACE, "net.deliver", "net", "f", 12, 20)
        out = build_tree([leaf, root, mid])
        assert [(s.name, d) for s, d in out] == [
            ("request", 0),
            ("switch.sequence", 1),
            ("net.deliver", 2),
        ]
        assert mid.parent_id == root.span_id
        assert leaf.parent_id == mid.span_id

    def test_siblings_share_parent(self):
        root = Span(1, TRACE, "request", "client", "c", 0, 100)
        a = Span(2, TRACE, "a", "net", "f", 10, 20)
        b = Span(3, TRACE, "b", "net", "f", 30, 40)
        out = build_tree([root, b, a])
        assert [(s.name, d) for s, d in out] == [("request", 0), ("a", 1), ("b", 1)]
        assert a.parent_id == b.parent_id == root.span_id

    def test_open_spans_listed_flat(self):
        root = Span(1, TRACE, "request", "client", "c", 0, None)
        done = Span(2, TRACE, "a", "net", "f", 10, 20)
        out = build_tree([root, done])
        assert [(s.name, d) for s, d in out] == [("a", 0), ("request", 0)]

    def test_render_trace(self):
        rec = SpanRecorder()
        span = rec.begin(TRACE, "request", "client", "client-0", 0)
        rec.record(TRACE, "net.deliver", "net", "fabric", 10, 20)
        rec.finish(span, 100)
        rendered = rec.render_trace(TRACE)
        assert "request" in rendered
        assert "  " + "[" in rendered  # child is indented
        assert rec.render_trace((999, 999)) == ""


class TestDecomposition:
    def _hand_built(self):
        # request [0, 100]; net [0,10] and [60,70]; sequencer [10,40];
        # crypto [40,45]; quorum [80,100]; gaps -> other.
        return [
            Span(1, TRACE, "request", "client", "c", 0, 100),
            Span(2, TRACE, "net.to_sequencer", "net", "f", 0, 10),
            Span(3, TRACE, "switch.sequence", "sequencer", "s", 10, 40),
            Span(4, TRACE, "replica.execute", "crypto", "r", 40, 45),
            Span(5, TRACE, "net.deliver", "net", "f", 60, 70),
            Span(6, TRACE, "client.quorum_wait", "quorum", "c", 80, 100),
        ]

    def test_hand_built_tree_exact(self):
        d = decompose_trace(self._hand_built())
        assert d.total == 100
        assert d.segments == {
            "net": 20,
            "sequencer": 30,
            "crypto": 5,
            "quorum": 20,
            "other": 25,
        }
        assert sum(d.segments.values()) == d.total

    def test_overlap_latest_start_wins(self):
        spans = [
            Span(1, TRACE, "request", "client", "c", 0, 100),
            Span(2, TRACE, "net.deliver", "net", "f", 0, 60),
            Span(3, TRACE, "switch.sequence", "sequencer", "s", 20, 40),
        ]
        d = decompose_trace(spans)
        # [20,40] covered by both; the sequencer span started later.
        assert d.segments == {"net": 40, "sequencer": 20, "other": 40}

    def test_child_clipped_to_root(self):
        spans = [
            Span(1, TRACE, "request", "client", "c", 10, 50),
            Span(2, TRACE, "net.deliver", "net", "f", 0, 20),  # starts early
        ]
        d = decompose_trace(spans)
        assert d.total == 40
        assert d.segments == {"net": 10, "other": 30}

    def test_open_or_missing_root(self):
        assert decompose_trace([]) is None
        assert decompose_trace([Span(1, TRACE, "request", "client", "c", 0, None)]) is None
        assert decompose_trace([Span(1, TRACE, "net.deliver", "net", "f", 0, 5)]) is None

    def test_share(self):
        d = decompose_trace(self._hand_built())
        assert d.share("sequencer") == pytest.approx(0.30)
        assert d.share("absent") == 0.0

    def test_decompose_all_and_median(self):
        spans = []
        for i, total in enumerate((10, 30, 20), start=1):
            trace = (i, 1)
            spans.append(Span(10 * i, trace, "request", "client", "c", 0, total))
            spans.append(Span(10 * i + 1, trace, "net.deliver", "net", "f", 0, total // 2))
        decs = decompose_all(spans)
        assert len(decs) == 3
        med = median_decomposition(decs)
        assert med.total == 20  # nearest-rank median of {10, 20, 30}
        assert median_decomposition([]) is None
