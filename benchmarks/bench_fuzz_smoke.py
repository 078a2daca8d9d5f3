"""CI fuzz smoke: a bounded multi-seed fault-schedule sweep.

Runs the deterministic fuzzer over every protocol with small random
fault campaigns (budgeted at <= f concurrent replica faults), checking
the invariant monitor and the linearizability oracle on each case. Any
violation is shrunk to a minimal reproducer and saved as replayable JSON
under ``benchmarks/results/fuzz_artifacts/`` — CI uploads that directory
so a red run ships its own repro.

Scale: SEEDS_PER_PROTOCOL seeds x all protocols at laptop scale; the
full 200-seed acceptance sweep is a manual ``python -m repro fuzz
--seeds 200`` run.

The summary goes to ``benchmarks/results/fuzz_smoke.txt`` only at the
default 4 seeds, the committed run; any other ``REPRO_FUZZ_SEEDS=N``
writes ``fuzz_smoke_<N>seeds.txt`` (git-ignored), so a smoke at another
scale leaves the committed summary as it is.

Exit status: non-zero iff a violation was found (artifacts on disk).
"""

from __future__ import annotations

import os
import sys

from benchmarks.bench_common import RESULTS_DIR, report, sweep_workers
from repro.faults.fuzz import FuzzBudget, fuzz_sweep
from repro.runtime.cluster import ALL_PROTOCOLS

DEFAULT_SEEDS = 4
SEEDS_PER_PROTOCOL = int(os.environ.get("REPRO_FUZZ_SEEDS", str(DEFAULT_SEEDS)))
REPORT_NAME = (
    "fuzz_smoke"
    if SEEDS_PER_PROTOCOL == DEFAULT_SEEDS
    else f"fuzz_smoke_{SEEDS_PER_PROTOCOL}seeds"
)
ARTIFACTS_DIR = os.path.join(RESULTS_DIR, "fuzz_artifacts")


def main() -> int:
    protocols = [p for p in ALL_PROTOCOLS if p != "unreplicated"]
    fuzz_report = fuzz_sweep(
        protocols,
        range(SEEDS_PER_PROTOCOL),
        budget=FuzzBudget(max_events=4),
        workers=sweep_workers(),
        artifacts_dir=ARTIFACTS_DIR,
        shrink=True,
    )

    lines = [
        f"protocols: {', '.join(protocols)}",
        f"seeds per protocol: {SEEDS_PER_PROTOCOL}",
        f"cases run: {fuzz_report.cases_run}",
        f"client ops completed: {fuzz_report.completed_ops}",
        f"invariant checks: {fuzz_report.invariant_checks}",
        f"violations: {len(fuzz_report.findings)}",
    ]
    for finding in fuzz_report.findings:
        lines.append(
            f"  {finding.protocol} seed {finding.seed}: "
            f"{finding.violation.signature} "
            f"(shrunk {finding.shrink_stats.original_events} -> "
            f"{finding.shrink_stats.shrunk_events} events, "
            f"artifact {finding.artifact_path})"
        )
    report(REPORT_NAME, lines)
    return 0 if fuzz_report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
