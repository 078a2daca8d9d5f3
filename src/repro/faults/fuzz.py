"""Deterministic fault-schedule fuzzing with automatic shrinking.

The fuzzer closes the loop the chaos campaigns opened: instead of
hand-written fault schedules, :func:`generate_case` draws a random
:class:`~repro.faults.campaign.FaultCampaign` for a ``(protocol, seed)``
pair — every draw from one named
:class:`~repro.sim.randomness.RandomStreams` stream, so the same pair
always yields the bit-identical schedule, serially or in a worker pool.
:func:`run_case` executes it under the
:class:`~repro.faults.invariants.InvariantMonitor` and the
linearizability oracle; when something breaks, :func:`shrink_case`
delta-debugs the schedule down to a minimal reproducer and
:func:`save_artifact` writes it as replayable JSON
(:func:`replay_artifact` re-runs it bit-identically from the embedded
seed).

Generation respects the protocol's fault model via budget constraints
(:class:`FuzzBudget`): at most ``f`` replicas concurrently faulty,
bounded sequencer/network mischief, and only fault kinds the registry
marks as applicable (e.g. Byzantine sequencer equivocation only under
``neobft-bn``). A schedule outside the fault model would "violate"
invariants vacuously — those are excluded by construction, so every
surviving violation is a real bug.
"""

from __future__ import annotations

import json
import re
from dataclasses import field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.faults.campaign import FaultCampaign, FaultEvent, FaultSpec
from repro.faults.invariants import InvariantMonitor, InvariantViolation
from repro.faults.linearizability import (
    CounterOp,
    LinearizabilityViolation,
    check_counter_history_with_gaps,
)
from repro.faults.registry import GenContext, fuzzable_kinds, kind_for
from repro.records import record
from repro.sim.clock import ms
from repro.sim.randomness import RandomStreams

ARTIFACT_FORMAT = "repro-fuzz-case-v1"

#: The one stream every schedule draw comes from. Module-level
#: ``random`` is banned here: a stray draw elsewhere in the process must
#: never perturb schedule generation (that is what made pre-registry
#: schedules irreproducible under worker pools).
SCHEDULE_STREAM = "fuzz.schedule"

_ONE = (1).to_bytes(8, "big", signed=True)


# ---------------------------------------------------------------------------
# Case description
# ---------------------------------------------------------------------------


@record(frozen=True)
class FuzzBudget:
    """Constraints a generated schedule must respect.

    ``max_concurrent_replica_faults=None`` means "the protocol's fault
    bound f" — the default keeps every schedule inside the fault model.
    """

    max_events: int = 5
    max_concurrent_replica_faults: Optional[int] = None
    max_network_faults: int = 2
    max_sequencer_faults: int = 1
    allowed_kinds: Optional[Tuple[str, ...]] = None


@record(frozen=True)
class FuzzCase:
    """A fully-specified fuzz input: everything a run needs, replayable."""

    protocol: str
    seed: int
    events: Tuple[FaultEvent, ...]
    f: int = 1
    num_clients: int = 4
    warmup_ns: int = ms(2)
    duration_ns: int = ms(30)
    drain_ns: int = ms(10)


@record(frozen=True)
class Violation:
    """What went wrong, normalised enough to compare across runs."""

    kind: str  # "invariant" | "linearizability" | "crash"
    signature: str
    message: str


@record
class FuzzOutcome:
    """The result of executing one case."""

    case: FuzzCase
    violation: Optional[Violation]
    completed_ops: int
    invariant_checks: int
    fired_events: int

    @property
    def ok(self) -> bool:
        return self.violation is None


def _signature(kind: str, message: str) -> str:
    """Normalised first line: stable across times/slots/digests.

    Hex-digest runs collapse to one ``#`` and remaining digits to ``#``
    each, so the same bug at a different slot/time/digest still matches
    during shrinking.
    """
    head = message.splitlines()[0] if message else ""
    head = re.sub(r"[0-9a-f]{6,}", "#", head)
    head = re.sub(r"[0-9]+", "#", head)
    return kind + ":" + head


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _max_concurrent_replica_targets(events: Sequence[FaultEvent], horizon_ns: int) -> int:
    """Peak count of *distinct* replicas faulty at the same instant.

    Conservative: an unhealed fault stays live to the horizon, and two
    faults on the same replica count once (a replica is faulty or not).
    """
    intervals = []
    for event in events:
        if kind_for(event.spec.kind).category != "replica":
            continue
        end = event.until_ns if event.until_ns is not None else horizon_ns
        intervals.append((event.at_ns, end, event.spec.target))
    peak = 0
    for start, _, _ in intervals:
        live = {t for (a, b, t) in intervals if a <= start < b}
        peak = max(peak, len(live))
    return peak


def generate_case(
    protocol: str,
    seed: int,
    budget: Optional[FuzzBudget] = None,
    f: int = 1,
    num_clients: int = 4,
    warmup_ns: int = ms(2),
    duration_ns: int = ms(30),
    drain_ns: int = ms(10),
) -> FuzzCase:
    """Draw a budget-respecting fault schedule for ``(protocol, seed)``.

    Every random decision comes from the single ``fuzz.schedule`` stream
    of a :class:`RandomStreams` seeded with ``seed``, so generation is a
    pure function of its arguments — bit-identical in any process.
    """
    from repro.runtime.cluster import ClusterOptions

    budget = budget or FuzzBudget()
    rng = RandomStreams(seed).get(SCHEDULE_STREAM)
    n = ClusterOptions(protocol=protocol, f=f).resolved_replicas()
    horizon_ns = warmup_ns + duration_ns
    ctx = GenContext(protocol=protocol, n=n, f=f, horizon_ns=horizon_ns)
    pool = fuzzable_kinds(protocol, budget.allowed_kinds)
    if not pool:
        raise ValueError(f"no fuzzable fault kinds for protocol {protocol!r}")
    replica_cap = (
        budget.max_concurrent_replica_faults
        if budget.max_concurrent_replica_faults is not None
        else f
    )

    target_count = rng.randint(1, budget.max_events)
    events: List[FaultEvent] = []
    category_counts: Dict[str, int] = {}
    attempts = 0
    while len(events) < target_count and attempts < budget.max_events * 20:
        attempts += 1
        kind = rng.choice(pool)
        target, params = kind.generate(rng, ctx)
        at_ns = rng.randrange(warmup_ns, max(warmup_ns + 1, int(horizon_ns * 0.8)))
        until_ns: Optional[int] = None
        if rng.random() < 0.6:
            until_ns = at_ns + rng.choice((ms(2), ms(5), ms(10)))
        candidate = FaultEvent(
            at_ns=at_ns,
            spec=FaultSpec(kind=kind.name, target=target, params=params),
            until_ns=until_ns,
            # Stable per-draw label: the injector's RNG stream must not
            # move when shrinking deletes earlier events.
            label=f"fuzz-{len(events)}-{kind.name}",
        )
        category = kind.category
        if category == "replica":
            if (
                _max_concurrent_replica_targets(events + [candidate], horizon_ns)
                > replica_cap
            ):
                continue
        elif category == "network":
            if category_counts.get("network", 0) >= budget.max_network_faults:
                continue
        elif category == "sequencer":
            if category_counts.get("sequencer", 0) >= budget.max_sequencer_faults:
                continue
        category_counts[category] = category_counts.get(category, 0) + 1
        events.append(candidate)

    return FuzzCase(
        protocol=protocol,
        seed=seed,
        events=tuple(sorted(events, key=lambda e: e.at_ns)),
        f=f,
        num_clients=num_clients,
        warmup_ns=warmup_ns,
        duration_ns=duration_ns,
        drain_ns=drain_ns,
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run_case(case: FuzzCase) -> FuzzOutcome:
    """Execute one case under the monitor + linearizability oracle."""
    from repro.apps.statemachine import CounterApp
    from repro.runtime.cluster import ClusterOptions, build_cluster
    from repro.runtime.harness import Measurement

    options = ClusterOptions(
        protocol=case.protocol,
        f=case.f,
        num_clients=case.num_clients,
        seed=case.seed,
        app_factory=CounterApp,
    )
    cluster = build_cluster(options)
    campaign = FaultCampaign(case.events)
    monitor = InvariantMonitor(context=campaign.describe).attach(cluster)
    measurement = Measurement(
        cluster,
        warmup_ns=case.warmup_ns,
        duration_ns=case.duration_ns,
        next_op=lambda: _ONE,
    )
    # Chain AFTER Measurement: its constructor installs the latency
    # recorder as each client's on_complete.
    history: List[CounterOp] = []
    for client in cluster.clients:
        original = client.on_complete

        def hook(request_id, latency, result, _client=client, _orig=original):
            completed = cluster.sim.now
            history.append(
                CounterOp(
                    client=_client.name,
                    invoked_at=completed - latency,
                    completed_at=completed,
                    delta=1,
                    result=int.from_bytes(result, "big", signed=True),
                )
            )
            if _orig is not None:
                _orig(request_id, latency, result)

        client.on_complete = hook
    campaign.arm(cluster)
    violation: Optional[Violation] = None
    try:
        measurement.run()
        campaign.heal_all()
        for client in cluster.clients:
            client.next_op = lambda: None
        cluster.sim.run_for(case.drain_ns)
        check_counter_history_with_gaps(history)
    except InvariantViolation as exc:
        violation = Violation("invariant", _signature("invariant", str(exc)), str(exc))
    except LinearizabilityViolation as exc:
        violation = Violation(
            "linearizability", _signature("linearizability", str(exc)), str(exc)
        )
    except Exception as exc:  # noqa: BLE001 — a crash IS a finding
        detail = f"{type(exc).__name__}: {exc}"
        violation = Violation("crash", _signature("crash", detail), detail)
    finally:
        campaign.heal_all()

    return FuzzOutcome(
        case=case,
        violation=violation,
        completed_ops=len(history),
        invariant_checks=monitor.checks,
        fired_events=sum(1 for e in campaign.timeline if e.action == "inject"),
    )


# ---------------------------------------------------------------------------
# Shrinking: ddmin over events, then parameter/time coarsening
# ---------------------------------------------------------------------------


@record
class ShrinkStats:
    """How the shrink went (for reports and tests)."""

    original_events: int = 0
    shrunk_events: int = 0
    oracle_runs: int = 0


def shrink_case(
    case: FuzzCase, violation: Violation, max_oracle_runs: int = 64
) -> Tuple[FuzzCase, ShrinkStats]:
    """Minimise ``case.events`` while preserving the violation signature.

    Classic ddmin over the event list (with a single-event fast path),
    then per-event coarsening: drop scheduled heals and snap injection
    times to millisecond grid. The oracle re-runs the candidate and
    compares ``(kind, signature)`` — digit-stripped, so shifted times or
    slots do not mask the same underlying bug.
    """
    stats = ShrinkStats(original_events=len(case.events))

    def reproduces(events: Sequence[FaultEvent]) -> bool:
        if stats.oracle_runs >= max_oracle_runs:
            return False
        stats.oracle_runs += 1
        outcome = run_case(replace(case, events=tuple(events)))
        return (
            outcome.violation is not None
            and outcome.violation.kind == violation.kind
            and outcome.violation.signature == violation.signature
        )

    events = list(case.events)

    # Fast path: one event alone is the most common minimal reproducer.
    for event in events:
        if len(events) == 1:
            break
        if reproduces([event]):
            events = [event]
            break

    # ddmin: remove complements at increasing granularity.
    granularity = 2
    while len(events) >= 2 and granularity <= len(events):
        chunk = max(1, len(events) // granularity)
        reduced = False
        start = 0
        while start < len(events):
            candidate = events[:start] + events[start + chunk :]
            if candidate and reproduces(candidate):
                events = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                start = 0
            else:
                start += chunk
        if not reduced:
            if granularity >= len(events):
                break
            granularity = min(len(events), granularity * 2)

    # Coarsening: simplify the survivors one field at a time.
    for index, event in enumerate(events):
        if event.until_ns is not None:
            candidate = events.copy()
            candidate[index] = replace(event, until_ns=None)
            if reproduces(candidate):
                events = candidate
                event = candidate[index]
        snapped = (event.at_ns // ms(1)) * ms(1)
        if snapped != event.at_ns and snapped >= 0:
            candidate = events.copy()
            candidate[index] = replace(event, at_ns=snapped)
            if reproduces(candidate):
                events = candidate

    stats.shrunk_events = len(events)
    return replace(case, events=tuple(events)), stats


# ---------------------------------------------------------------------------
# Artifacts: replayable JSON reproducers
# ---------------------------------------------------------------------------


def _encode(value):
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, Mapping):
        # Items, not objects: JSON objects force string keys, and fault
        # params legitimately use int keys (e.g. equivocation splits).
        return {"__items__": [[_encode(k), _encode(v)] for k, v in value.items()]}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _decode(value):
    if isinstance(value, dict):
        if "__bytes__" in value:
            return bytes.fromhex(value["__bytes__"])
        if "__items__" in value:
            return {_decode(k): _decode(v) for k, v in value["__items__"]}
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def case_to_dict(case: FuzzCase, violation: Optional[Violation] = None) -> dict:
    payload = {
        "format": ARTIFACT_FORMAT,
        "protocol": case.protocol,
        "seed": case.seed,
        "f": case.f,
        "num_clients": case.num_clients,
        "warmup_ns": case.warmup_ns,
        "duration_ns": case.duration_ns,
        "drain_ns": case.drain_ns,
        "events": [
            {
                "at_ns": event.at_ns,
                "until_ns": event.until_ns,
                "label": event.label,
                "kind": event.spec.kind,
                "target": event.spec.target,
                "params": _encode(dict(event.spec.params)),
            }
            for event in case.events
        ],
    }
    if violation is not None:
        payload["violation"] = {
            "kind": violation.kind,
            "signature": violation.signature,
            "message": violation.message,
        }
    return payload


def case_from_dict(payload: dict) -> Tuple[FuzzCase, Optional[Violation]]:
    if payload.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"not a fuzz artifact (format={payload.get('format')!r}, "
            f"expected {ARTIFACT_FORMAT!r})"
        )
    events = tuple(
        FaultEvent(
            at_ns=entry["at_ns"],
            spec=FaultSpec(
                kind=entry["kind"],
                target=entry["target"],
                params=_decode(entry["params"]),
            ),
            until_ns=entry["until_ns"],
            label=entry["label"],
        )
        for entry in payload["events"]
    )
    case = FuzzCase(
        protocol=payload["protocol"],
        seed=payload["seed"],
        events=events,
        f=payload["f"],
        num_clients=payload["num_clients"],
        warmup_ns=payload["warmup_ns"],
        duration_ns=payload["duration_ns"],
        drain_ns=payload["drain_ns"],
    )
    violation = None
    if "violation" in payload:
        violation = Violation(
            kind=payload["violation"]["kind"],
            signature=payload["violation"]["signature"],
            message=payload["violation"]["message"],
        )
    return case, violation


def save_artifact(
    path, case: FuzzCase, violation: Optional[Violation] = None
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(case_to_dict(case, violation), indent=2, sort_keys=True))
    return path


def load_artifact(path) -> Tuple[FuzzCase, Optional[Violation]]:
    return case_from_dict(json.loads(Path(path).read_text()))


def replay_artifact(path) -> FuzzOutcome:
    """Re-run a saved reproducer; deterministic from the embedded seed."""
    case, _ = load_artifact(path)
    return run_case(case)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@record
class FuzzFinding:
    """One violating seed, shrunk and (optionally) saved."""

    protocol: str
    seed: int
    violation: Violation
    shrunk: dict  # artifact payload (JSON-safe, pickles across workers)
    shrink_stats: ShrinkStats
    artifact_path: Optional[str] = None


@record
class FuzzReport:
    """Everything a fuzz sweep produced."""

    cases_run: int = 0
    completed_ops: int = 0
    invariant_checks: int = 0
    findings: List[FuzzFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def _fuzz_point(protocol: str, seed: int, budget: FuzzBudget, shrink: bool):
    """One sweep point; module-level so worker processes can unpickle it."""
    case = generate_case(protocol, seed, budget)
    outcome = run_case(case)
    if outcome.violation is None:
        return (outcome.completed_ops, outcome.invariant_checks, None)
    shrunk_case, stats = (
        shrink_case(case, outcome.violation)
        if shrink
        else (case, ShrinkStats(len(case.events), len(case.events), 0))
    )
    finding = FuzzFinding(
        protocol=protocol,
        seed=seed,
        violation=outcome.violation,
        shrunk=case_to_dict(shrunk_case, outcome.violation),
        shrink_stats=stats,
    )
    return (outcome.completed_ops, outcome.invariant_checks, finding)


def fuzz_sweep(
    protocols: Sequence[str],
    seeds: Sequence[int],
    budget: Optional[FuzzBudget] = None,
    workers: int = 1,
    artifacts_dir=None,
    shrink: bool = True,
) -> FuzzReport:
    """Fuzz every ``(protocol, seed)`` pair; shrink and file violations.

    Parallel execution returns bit-identical findings in the same order
    as serial: each point is a pure function of ``(protocol, seed,
    budget)``. Falls back to serial when a pool cannot be spawned.
    """
    from repro.runtime.parallel import parallel_map

    budget = budget or FuzzBudget()
    points = [(protocol, seed) for protocol in protocols for seed in seeds]
    results = parallel_map(
        _fuzz_point, [(p, s, budget, shrink) for p, s in points], workers
    )

    report = FuzzReport(cases_run=len(points))
    for ops, checks, finding in results:
        report.completed_ops += ops
        report.invariant_checks += checks
        if finding is not None:
            if artifacts_dir is not None:
                path = Path(artifacts_dir) / (
                    f"fuzz-{finding.protocol}-seed{finding.seed}.json"
                )
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(finding.shrunk, indent=2, sort_keys=True))
                finding.artifact_path = str(path)
            report.findings.append(finding)
    return report
