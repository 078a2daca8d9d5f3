"""Labeled metrics registry and snapshot views."""

from repro.telemetry import MetricsRegistry, format_key, metric_key


class TestMetricKey:
    def test_labels_sorted_canonically(self):
        assert metric_key("m", {"b": "2", "a": "1"}) == metric_key("m", {"a": "1", "b": "2"})

    def test_values_stringified(self):
        assert metric_key("m", {"n": 3}) == ("m", (("n", "3"),))

    def test_format(self):
        assert format_key(("net.packets", ())) == "net.packets"
        assert format_key(("m", (("a", "1"), ("b", "2")))) == "m{a=1,b=2}"


class TestRegistry:
    def test_counters(self):
        reg = MetricsRegistry()
        reg.scope("net.", event="sent").add("packets")
        reg.scope("net.", event="sent").add("packets", 3)
        reg.scope("net.", event="lost").add("packets")
        snap = reg.snapshot()
        assert snap.counter("net.packets", event="sent") == 4
        assert snap.counter("net.packets", event="lost") == 1
        assert snap.counter("net.packets", event="absent") == 0

    def test_scopes_with_equal_labels_are_shared(self):
        reg = MetricsRegistry()
        scope = reg.scope("aom.", node="replica-0", group=1)
        assert reg.scope("aom.", group="1", node="replica-0") is scope
        assert reg.scope("net.", node="replica-0", group=1) is not scope

    def test_gauges_keep_latest(self):
        reg = MetricsRegistry()
        reg.set_gauge("net.queue_depth", 5, host="replica-0")
        reg.set_gauge("net.queue_depth", 2, host="replica-0")
        snap = reg.snapshot()
        assert snap.gauge("net.queue_depth", host="replica-0") == 2
        assert snap.gauge("net.queue_depth", host="replica-9") is None

    def test_histograms(self):
        reg = MetricsRegistry()
        for v in (10, 20, 30):
            reg.observe("client.request_latency_ns", v, proto="neobft")
        snap = reg.snapshot()
        summary = snap.histogram_summary("client.request_latency_ns", proto="neobft")
        assert summary["count"] == 3
        assert summary["p50"] == 20
        assert snap.histogram_summary("client.request_latency_ns", proto="pbft") is None

    def test_names(self):
        reg = MetricsRegistry()
        reg.scope("b.").add("counter")
        reg.set_gauge("a.gauge", 1)
        reg.observe("c.hist", 1)
        assert reg.snapshot().names() == ["a.gauge", "b.counter", "c.hist"]


class TestSnapshot:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.scope("net.", event="sent").add("packets", 4)
        reg.scope("net.", event="lost").add("packets", 1)
        reg.set_gauge("switch.fpga_stock", 4096)
        for v in range(1, 11):
            reg.observe("replica.exec_cost_ns", v * 100, proto="neobft")
        return reg.snapshot()

    def test_counter_and_gauge_views(self):
        snap = self._snapshot()
        assert snap.counter("net.packets", event="sent") == 4
        assert snap.gauge("switch.fpga_stock") == 4096

    def test_histogram_summary_shape(self):
        snap = self._snapshot()
        summary = snap.histogram_summary("replica.exec_cost_ns", proto="neobft")
        assert summary["count"] == 10
        assert summary["p50"] == 500
        assert summary["max"] == 1000
        assert summary["mean"] == 550

    def test_prefix_filter(self):
        snap = self._snapshot()
        assert snap.names_with_prefix("net.") == ["net.packets"]
        assert snap.names_with_prefix("replica.") == ["replica.exec_cost_ns"]

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        scope = reg.scope("")
        scope.add("x")
        snap = reg.snapshot()
        scope.add("x")
        assert snap.counter("x") == 1
        assert reg.snapshot().counter("x") == 2
