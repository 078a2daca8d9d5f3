"""Harness + cross-layer telemetry integration."""

import io

from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.runtime.harness import run_once
from repro.sim.clock import ms
from repro.telemetry import Telemetry, decompose_all, median_decomposition
from repro.telemetry.report import format_report

OPTIONS = ClusterOptions(protocol="neobft-hm", num_clients=2, seed=11)


def run_with_telemetry():
    tel = Telemetry()
    result = run_once(OPTIONS, warmup_ns=ms(1), duration_ns=ms(4), telemetry=tel)
    return tel, result


class TestHarnessIntegration:
    def test_disabled_still_counts(self):
        result = run_once(OPTIONS, warmup_ns=ms(1), duration_ns=ms(4))
        snap = result.metrics
        for prefix in ("net.", "aom.", "replica.", "crypto."):
            assert snap.names_with_prefix(prefix), f"no {prefix} counters"
        assert snap.counters and not snap.gauges and not snap.histograms

    def test_counters_identical_with_and_without_telemetry(self):
        plain = run_once(OPTIONS, warmup_ns=ms(1), duration_ns=ms(4))
        _, traced = run_with_telemetry()
        assert traced.metrics.counters == plain.metrics.counters
        assert traced.metrics.gauges and traced.metrics.histograms

    def test_enabled_vs_disabled_identical_results(self):
        plain = run_once(OPTIONS, warmup_ns=ms(1), duration_ns=ms(4))
        _, traced = run_with_telemetry()
        # Telemetry only watches: same seed, same execution, same numbers.
        assert traced.throughput_ops == plain.throughput_ops
        assert traced.completions == plain.completions
        assert traced.latency._samples == plain.latency._samples
        assert traced.replica_metrics == plain.replica_metrics

    def test_every_layer_publishes(self):
        _, result = run_with_telemetry()
        snap = result.metrics
        for prefix in ("sim.", "net.", "switch.", "aom.", "replica.", "client."):
            assert snap.names_with_prefix(prefix), f"no {prefix} metrics published"

    def test_protocol_labels(self):
        _, result = run_with_telemetry()
        snap = result.metrics
        assert snap.counter("replica.ops_executed", node="replica-0", proto="neobft") > 0
        assert snap.histogram_summary("client.request_latency_ns", proto="neobft")

    def test_spans_decompose_exactly(self):
        tel, result = run_with_telemetry()
        decs = decompose_all(tel.span_list())
        assert decs, "no complete request traces recorded"
        for d in decs:
            assert sum(d.segments.values()) == d.total
        med = median_decomposition(decs)
        # The median trace's segment sum IS its end-to-end latency, and
        # that latency is one of the recorded client latencies.
        assert med.total in result.latency._samples

    def test_measurement_knob_sets_sink(self):
        cluster = build_cluster(OPTIONS)
        tel = Telemetry()
        Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(2), telemetry=tel)
        assert cluster.sim.telemetry is tel

    def test_metrics_snapshot_off_by_default(self):
        cluster = build_cluster(OPTIONS)
        assert cluster.sim.telemetry is None


class TestReportCli:
    def test_report_over_dump(self):
        tel, _ = run_with_telemetry()
        buf = io.StringIO()
        tel.write_spans_jsonl(buf)
        buf.seek(0)
        from repro.telemetry.exporters import load_spans_jsonl

        spans = load_spans_jsonl(buf)
        report = format_report(spans)
        assert "median request breakdown" in report
        assert "sequencer" in report
        assert "total" in report

    def test_single_trace_report(self):
        tel, _ = run_with_telemetry()
        decs = decompose_all(tel.span_list())
        trace = decs[0].trace
        report = format_report(tel.span_list(), trace)
        assert f"request={trace[1]}" in report
        assert "no completed request" in format_report(tel.span_list(), (9999, 9999))


class TestInvariantSpanAttach:
    def test_violation_attaches_span_tree(self):
        import pytest

        from repro.faults.invariants import InvariantMonitor, InvariantViolation

        cluster = build_cluster(OPTIONS)
        tel = Telemetry()
        measurement = Measurement(
            cluster, warmup_ns=ms(1), duration_ns=ms(2), telemetry=tel
        )
        monitor = InvariantMonitor().attach(cluster)
        measurement.run()
        # Forge a conflict for a slot a request executed at, then commit
        # it, so the violation message carries that request's span tree.
        # (Slots below the last sync point every replica reached are
        # released, so the slot is taken from the uncommitted suffix.)
        log = cluster.replicas[0].log
        slot = next(
            s for s in range(log.commit_cursor, log.exec_cursor)
            if log.get(s).request is not None
        )
        monitor._slot_digests[slot] = (b"\xde\xad" * 16, "rigged-replica")
        with pytest.raises(InvariantViolation) as exc:
            log.mark_committed_up_to(slot)
        message = str(exc.value)
        assert "offending request span tree" in message
        assert "request" in message
        monitor.detach()
