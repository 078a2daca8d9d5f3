"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``       one measured run of a protocol (throughput + latency)
- ``sweep``     a latency/throughput sweep over client counts
- ``aom``       aom switch micro-benchmark (latency + saturation)
- ``fuzz``      randomized fault-schedule fuzzing (shrinks violations)
- ``protocols`` list available protocols
"""

from __future__ import annotations

import argparse
import sys

from repro.aom.messages import AuthVariant
from repro.runtime import ClusterOptions, run_sweep
from repro.runtime.cluster import ALL_PROTOCOLS
from repro.runtime.harness import run_once
from repro.runtime.microbench import run_offered_load, saturation_throughput
from repro.sim.clock import ms


def _cmd_run(args) -> int:
    options = ClusterOptions(
        protocol=args.protocol, f=args.f, num_clients=args.clients, seed=args.seed
    )
    result = run_once(options, warmup_ns=ms(args.warmup_ms), duration_ns=ms(args.duration_ms))
    print(result.row())
    return 0


def _cmd_sweep(args) -> int:
    counts = [int(c) for c in args.clients.split(",")]
    results = run_sweep(
        ClusterOptions(protocol=args.protocol, f=args.f, seed=args.seed),
        counts,
        warmup_ns=ms(args.warmup_ms),
        duration_ns=ms(args.duration_ms),
    )
    for result in results:
        print(result.row())
    return 0


def _cmd_aom(args) -> int:
    variant = AuthVariant(args.variant)
    saturation = saturation_throughput(variant, args.group, packets=args.packets)
    print(f"saturation: {saturation / 1e6:.2f} Mpps (group {args.group})")
    for load in (0.25, 0.50, 0.99):
        result = run_offered_load(
            variant, args.group, offered_pps=load * saturation, packets=args.packets
        )
        print(
            f"load {load:4.0%}: p50 {result.median_us():7.2f} us   "
            f"p99.9 {result.p999_us():7.2f} us"
        )
    return 0


def _cmd_fuzz(args) -> int:
    from repro.faults.fuzz import FuzzBudget, fuzz_sweep, replay_artifact

    if args.replay is not None:
        outcome = replay_artifact(args.replay)
        if outcome.violation is None:
            print(f"replay of {args.replay}: no violation reproduced")
            return 1
        print(f"replay of {args.replay}: {outcome.violation.kind}")
        print(outcome.violation.message)
        return 0

    protocols = args.protocols.split(",")
    seeds = range(args.seed_base, args.seed_base + args.seeds)
    budget = FuzzBudget(max_events=args.max_events)
    report = fuzz_sweep(
        protocols,
        seeds,
        budget=budget,
        workers=args.workers,
        artifacts_dir=args.artifacts_dir,
        shrink=not args.no_shrink,
    )
    print(
        f"fuzzed {report.cases_run} cases "
        f"({report.completed_ops} client ops, "
        f"{report.invariant_checks} invariant checks): "
        f"{len(report.findings)} violation(s)"
    )
    for finding in report.findings:
        where = f" -> {finding.artifact_path}" if finding.artifact_path else ""
        print(
            f"  {finding.protocol} seed {finding.seed}: "
            f"{finding.violation.signature} "
            f"(shrunk {finding.shrink_stats.original_events} -> "
            f"{finding.shrink_stats.shrunk_events} events){where}"
        )
    return 0 if report.ok else 1


def _cmd_protocols(_args) -> int:
    for protocol in ALL_PROTOCOLS:
        print(protocol)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="one measured run")
    run_parser.add_argument("protocol", choices=ALL_PROTOCOLS)
    run_parser.add_argument("--clients", type=int, default=8)
    run_parser.add_argument("--f", type=int, default=1)
    run_parser.add_argument("--seed", type=int, default=1)
    run_parser.add_argument("--warmup-ms", type=float, default=5.0)
    run_parser.add_argument("--duration-ms", type=float, default=25.0)
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = sub.add_parser("sweep", help="latency/throughput sweep")
    sweep_parser.add_argument("protocol", choices=ALL_PROTOCOLS)
    sweep_parser.add_argument("--clients", default="1,8,32,96")
    sweep_parser.add_argument("--f", type=int, default=1)
    sweep_parser.add_argument("--seed", type=int, default=1)
    sweep_parser.add_argument("--warmup-ms", type=float, default=3.0)
    sweep_parser.add_argument("--duration-ms", type=float, default=12.0)
    sweep_parser.set_defaults(func=_cmd_sweep)

    aom_parser = sub.add_parser("aom", help="aom switch micro-benchmark")
    aom_parser.add_argument("--variant", choices=["hm", "pk"], default="hm")
    aom_parser.add_argument("--group", type=int, default=4)
    aom_parser.add_argument("--packets", type=int, default=5000)
    aom_parser.set_defaults(func=_cmd_aom)

    fuzz_parser = sub.add_parser("fuzz", help="fault-schedule fuzzing")
    fuzz_parser.add_argument(
        "--protocols", default="neobft-hm,neobft-bn,pbft",
        help="comma-separated protocol list",
    )
    fuzz_parser.add_argument("--seeds", type=int, default=20, help="seeds per protocol")
    fuzz_parser.add_argument("--seed-base", type=int, default=0)
    fuzz_parser.add_argument("--max-events", type=int, default=5)
    fuzz_parser.add_argument("--workers", type=int, default=1)
    fuzz_parser.add_argument(
        "--artifacts-dir", default=None,
        help="directory for shrunk reproducer JSON (written only on violations)",
    )
    fuzz_parser.add_argument(
        "--no-shrink", action="store_true", help="skip shrinking failing schedules"
    )
    fuzz_parser.add_argument(
        "--replay", default=None, metavar="ARTIFACT",
        help="re-run a saved reproducer instead of fuzzing",
    )
    fuzz_parser.set_defaults(func=_cmd_fuzz)

    protocols_parser = sub.add_parser("protocols", help="list protocols")
    protocols_parser.set_defaults(func=_cmd_protocols)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
