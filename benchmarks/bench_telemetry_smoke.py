"""Telemetry smoke: one instrumented fig7-style NeoBFT run, artifacts validated.

A single neobft-hm measurement runs with the telemetry sink attached and
exports all three artifact formats to ``benchmarks/results/``:

- ``telemetry_trace.json``   — Chrome trace-event JSON (Perfetto-loadable)
- ``telemetry_metrics.prom`` — Prometheus text snapshot
- ``telemetry_spans.jsonl``  — raw span dump for ``python -m repro.telemetry.report``

Each artifact is read back through the matching loader, so a formatting
regression fails the bench rather than silently producing an unloadable
file. The checks also pin the tentpole guarantees: every layer publishes
at least one metric, the critical-path decomposition of every request is
exact (segments sum to the end-to-end latency), the median decomposition
matches the run's median latency within 1%, and enabling telemetry does
not change the measured results at all.

Runs two ways, like the chaos suite:

- under pytest-benchmark alongside the figure benches, and
- standalone (``python -m benchmarks.bench_telemetry_smoke``) as the CI
  smoke — exits non-zero if any artifact fails validation.
"""

import os

from repro.runtime import ClusterOptions
from repro.runtime.harness import run_once
from repro.sim.clock import ms
from repro.telemetry import Telemetry, decompose_all, median_decomposition
from repro.telemetry.exporters import (
    load_chrome_trace,
    load_spans_jsonl,
    parse_prometheus,
    to_prometheus,
)
from repro.telemetry.report import format_decomposition

from benchmarks.bench_common import RESULTS_DIR, report

OPTIONS = ClusterOptions(protocol="neobft-hm", num_clients=8, seed=7)
WARMUP = ms(2)
DURATION = ms(10)

LAYER_PREFIXES = ("sim.", "net.", "switch.", "aom.", "replica.", "client.")

TRACE_PATH = os.path.join(RESULTS_DIR, "telemetry_trace.json")
PROM_PATH = os.path.join(RESULTS_DIR, "telemetry_metrics.prom")
SPANS_PATH = os.path.join(RESULTS_DIR, "telemetry_spans.jsonl")


def run_instrumented():
    """Run the same measurement twice: bare, then with the sink attached."""
    plain = run_once(OPTIONS, warmup_ns=WARMUP, duration_ns=DURATION)
    telemetry = Telemetry()
    traced = run_once(OPTIONS, warmup_ns=WARMUP, duration_ns=DURATION, telemetry=telemetry)
    return plain, traced, telemetry


def export_artifacts(traced, telemetry):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(TRACE_PATH, "w") as handle:
        telemetry.write_chrome_trace(handle)
    with open(PROM_PATH, "w") as handle:
        handle.write(to_prometheus(traced.metrics))
    with open(SPANS_PATH, "w") as handle:
        telemetry.write_spans_jsonl(handle)


def check(plain, traced, telemetry):
    # Telemetry is an observer: same seed, bit-identical results, so the
    # "overhead when disabled" criterion is 0% by construction.
    assert traced.throughput_ops == plain.throughput_ops
    assert traced.completions == plain.completions
    assert traced.latency._samples == plain.latency._samples

    export_artifacts(traced, telemetry)

    # (a) the Chrome trace loads and every event sits on a named thread.
    with open(TRACE_PATH) as handle:
        events = load_chrome_trace(handle)
    assert events, "Chrome trace exported no complete events"

    # (b) the Prometheus snapshot carries at least one metric per layer.
    with open(PROM_PATH) as handle:
        families = parse_prometheus(handle.read())
    for prefix in LAYER_PREFIXES:
        prom_prefix = prefix.replace(".", "_")
        hits = [name for name in families if name.startswith(prom_prefix)]
        assert hits, f"no {prefix} metrics in the Prometheus snapshot"

    # (c) the span dump round-trips and every request decomposes exactly.
    with open(SPANS_PATH) as handle:
        spans = load_spans_jsonl(handle)
    decompositions = decompose_all(spans)
    assert decompositions, "no completed request traces in the span dump"
    for decomposition in decompositions:
        assert sum(decomposition.segments.values()) == decomposition.total
    median = median_decomposition(decompositions)
    median_latency = traced.latency.median()
    assert abs(median.total - median_latency) <= 0.01 * median_latency, (
        f"median decomposition {median.total} ns vs median latency "
        f"{median_latency} ns differ by more than 1%"
    )
    return events, families, spans, decompositions, median


def summarize(plain, traced, telemetry):
    events, families, spans, decompositions, median = check(plain, traced, telemetry)
    lines = [
        "instrumented neobft-hm run (8 clients, seed 7, 10 ms window)",
        f"throughput: {traced.throughput_ops / 1e3:.1f} K ops/s "
        f"(identical with telemetry off: {traced.throughput_ops == plain.throughput_ops})",
        f"spans recorded: {len(spans)} ({telemetry.spans.dropped} dropped), "
        f"chrome events: {len(events)}, metric families: {len(families)}",
        f"requests decomposed: {len(decompositions)}",
        "",
        "median request critical path:",
        format_decomposition(median),
        "",
        f"artifacts: {os.path.basename(TRACE_PATH)}, "
        f"{os.path.basename(PROM_PATH)}, {os.path.basename(SPANS_PATH)}",
    ]
    report("telemetry_smoke", lines)


def test_telemetry_smoke(benchmark):
    plain, traced, telemetry = benchmark.pedantic(
        run_instrumented, rounds=1, iterations=1
    )
    summarize(plain, traced, telemetry)


def main() -> int:
    plain, traced, telemetry = run_instrumented()
    summarize(plain, traced, telemetry)
    print("telemetry smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
