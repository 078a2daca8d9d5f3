"""Exporter round-trips: Chrome trace JSON, Prometheus text, JSONL."""

import io
import json

import pytest

from repro.telemetry.exporters import (
    load_chrome_trace,
    load_spans_jsonl,
    parse_prometheus,
    spans_to_jsonl,
    to_chrome_trace,
    to_prometheus,
)
from repro.telemetry import MetricsRegistry
from repro.telemetry.spans import Span

TRACE = (100, 1)


def sample_spans():
    return [
        Span(1, TRACE, "request", "client", "client-0", 0, 20_000),
        Span(2, TRACE, "net.deliver", "net", "fabric", 1_000, 3_000, parent_id=1,
             attrs={"src": 4, "dst": 0}),
        Span(3, TRACE, "open-span", "net", "fabric", 5_000, None),
    ]


class TestChromeTrace:
    def test_round_trip(self):
        doc = to_chrome_trace(sample_spans())
        buf = io.StringIO(json.dumps(doc))
        events = load_chrome_trace(buf)
        # Open spans are not exported; both closed ones are.
        assert [e["name"] for e in events] == ["request", "net.deliver"]
        assert events[0]["ts"] == 0
        assert events[0]["dur"] == 20.0  # 20us in the format's microseconds
        assert events[1]["args"]["trace"] == [100, 1]
        assert events[1]["args"]["parent_id"] == 1

    def test_thread_metadata_per_node(self):
        doc = to_chrome_trace(sample_spans())
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert names == {"client-0", "fabric"}

    def test_loader_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_chrome_trace(io.StringIO('{"no": "traceEvents"}'))
        bad = {"traceEvents": [{"ph": "X", "name": "x"}]}
        with pytest.raises(ValueError):
            load_chrome_trace(io.StringIO(json.dumps(bad)))

    def test_loader_rejects_unnamed_thread(self):
        bad = {
            "traceEvents": [
                {"name": "x", "cat": "net", "ph": "X", "ts": 0, "dur": 1,
                 "pid": 1, "tid": 42}
            ]
        }
        with pytest.raises(ValueError, match="unnamed thread"):
            load_chrome_trace(io.StringIO(json.dumps(bad)))


class TestPrometheus:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.scope("net.", event="sent").add("packets", 7)
        reg.set_gauge("switch.fpga_stock", 1024)
        for v in (100, 200, 300):
            reg.observe("client.request_latency_ns", v, proto="neobft")
        return reg.snapshot()

    def test_round_trip(self):
        text = to_prometheus(self._snapshot())
        samples = parse_prometheus(text)
        assert samples["net_packets"] == [({"event": "sent"}, 7.0)]
        assert samples["switch_fpga_stock"] == [({}, 1024.0)]
        count = samples["client_request_latency_ns_count"]
        assert count == [({"proto": "neobft"}, 3.0)]
        quantiles = {
            labels["quantile"]: value
            for labels, value in samples["client_request_latency_ns"]
        }
        assert quantiles["0.5"] == 200.0

    def test_type_comments_present(self):
        text = to_prometheus(self._snapshot())
        assert "# TYPE net_packets counter" in text
        assert "# TYPE switch_fpga_stock gauge" in text
        assert "# TYPE client_request_latency_ns summary" in text

    def test_parser_rejects_bad_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus("metric_without_value")
        with pytest.raises(ValueError):
            parse_prometheus("metric 1.0.0.0")
        with pytest.raises(ValueError):
            parse_prometheus('metric{unquoted=x} 1')


class TestSpansJsonl:
    def test_round_trip(self):
        spans = sample_spans()
        buf = io.StringIO()
        assert spans_to_jsonl(spans, buf) == 3
        buf.seek(0)
        loaded = load_spans_jsonl(buf)
        assert len(loaded) == 3
        assert loaded[0].trace == TRACE
        assert loaded[1].attrs == {"src": 4, "dst": 0}
        assert loaded[2].end is None  # open span survives the round trip

    def test_loader_rejects_bad_json(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            load_spans_jsonl(io.StringIO("not json\n"))
        with pytest.raises(ValueError, match="bad span record"):
            load_spans_jsonl(io.StringIO('{"span_id": 1}\n'))
