"""Figure 7: latency vs throughput for NeoBFT (hm/pk/BN) against
Unreplicated, Zyzzyva (+Zyzzyva-F), PBFT, HotStuff and MinBFT.

Paper result (4 replicas, echo RPC, closed-loop clients): NeoBFT-HM
sustains the highest throughput at the lowest latency; Zyzzyva is the
closest baseline but loses >54% of its throughput with one silent
replica; PBFT / HotStuff / MinBFT trail at 2.5x / 3.4x / 4.1x lower
throughput with far higher latency.

Scaling note: measurement windows are 12 ms of virtual time (the paper
runs seconds); closed-loop client counts sweep each protocol to its knee.
"""

import pytest

from repro.runtime import ClusterOptions, run_sweep
from repro.sim.clock import ms

from benchmarks.bench_common import fmt_row, knee, report, sweep_workers

SWEEPS = [
    ("unreplicated", {}, [1, 8, 32, 96]),
    ("neobft-hm", {}, [1, 8, 32, 96]),
    ("neobft-pk", {}, [1, 8, 32, 96]),
    ("neobft-bn", {}, [1, 8, 32, 96]),
    ("zyzzyva", {}, [1, 8, 32, 96]),
    ("zyzzyva-f", {"replica_kwargs": {"silent_replicas": {2}}}, [1, 8, 32, 96]),
    ("pbft", {}, [1, 8, 32, 96]),
    ("hotstuff", {}, [4, 32, 128, 320]),
    ("minbft", {}, [4, 32, 128]),
]


def run_all():
    curves = {}
    for label, extra, counts in SWEEPS:
        protocol = "zyzzyva" if label == "zyzzyva-f" else label
        base = ClusterOptions(protocol=protocol, seed=7, **extra)
        curves[label] = run_sweep(
            base, counts, warmup_ns=ms(3), duration_ns=ms(12),
            workers=sweep_workers(),
        )
    return curves


def test_fig7_latency_vs_throughput(benchmark):
    curves = benchmark.pedantic(run_all, rounds=1, iterations=1)
    widths = [14, 9, 14, 12, 12]
    lines = [
        "latency vs throughput (echo RPC, f=1; full curves then knee summary)",
        fmt_row(["series", "clients", "tput (Kops/s)", "p50 (us)", "p99 (us)"], widths),
    ]
    for label, results in curves.items():
        for r in results:
            lines.append(
                fmt_row(
                    [label, r.num_clients, f"{r.throughput_ops / 1e3:.1f}",
                     f"{r.median_latency_us:.1f}", f"{r.p99_latency_us:.1f}"],
                    widths,
                )
            )
    peaks = {label: knee(results) for label, results in curves.items()}
    lines.append("")
    lines.append("knee summary (max throughput):")
    neo = peaks["neobft-hm"].throughput_ops
    for label, peak in sorted(peaks.items(), key=lambda kv: -kv[1].throughput_ops):
        lines.append(
            f"  {label:<14} {peak.throughput_ops / 1e3:8.1f} Kops/s   "
            f"NeoBFT-HM/x = {neo / peak.throughput_ops:4.2f}"
        )
    lows = {label: results[0] for label, results in curves.items()}
    from repro.runtime.plots import bar_chart

    lines.append("")
    lines.extend(
        bar_chart(
            [(label, peak.throughput_ops / 1e3)
             for label, peak in sorted(peaks.items(), key=lambda kv: -kv[1].throughput_ops)],
            width=40,
            unit=" Kops/s",
        )
    )
    lines.append("")
    lines.append("low-load latency (1 client per series):")
    neolat = lows["neobft-hm"].median_latency_us
    for label, low in sorted(lows.items(), key=lambda kv: kv[1].median_latency_us):
        lines.append(
            f"  {label:<14} p50 {low.median_latency_us:8.1f} us   "
            f"x/NeoBFT-HM = {low.median_latency_us / neolat:5.2f}"
        )
    report("fig7_latency_throughput", lines)

    # Shape assertions from the paper.
    assert peaks["neobft-hm"].throughput_ops > peaks["zyzzyva"].throughput_ops
    assert peaks["neobft-hm"].throughput_ops > peaks["pbft"].throughput_ops * 1.3
    assert peaks["neobft-hm"].throughput_ops > peaks["hotstuff"].throughput_ops * 3.0
    assert peaks["neobft-hm"].throughput_ops > peaks["minbft"].throughput_ops * 3.5
    assert peaks["zyzzyva-f"].throughput_ops < 0.7 * peaks["zyzzyva"].throughput_ops
    # NeoBFT has the lowest latency of any replicated protocol.
    for label, low in lows.items():
        if label in ("neobft-hm", "unreplicated"):
            continue
        assert low.median_latency_us > lows["neobft-hm"].median_latency_us
    # HotStuff pays the worst latency (paper: 42x NeoBFT).
    assert lows["hotstuff"].median_latency_us > 20 * lows["neobft-hm"].median_latency_us
