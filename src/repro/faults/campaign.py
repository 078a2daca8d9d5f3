"""Declarative, seed-deterministic fault campaigns.

A :class:`FaultCampaign` is a schedule of timed :class:`FaultEvent`s —
inject this fault at t₁, heal it at t₂ — over the fault primitives in
this package (replica crash/silent/corrupt/slow, sequencer fail/flap/
equivocate, drops, duplication, reordering, partitions). Arming a
campaign against a cluster turns each event into discrete-event
simulator callbacks, so the whole chaos schedule replays bit-for-bit
under a fixed seed: randomized faults draw from named
:class:`~repro.sim.randomness.RandomStreams` keyed by the event label,
never from global randomness.

The campaign keeps a structured timeline of everything it did, which
:class:`~repro.faults.invariants.InvariantMonitor` attaches to violation
reports — a safety failure names the exact fault schedule that provoked
it.

:func:`run_campaign` is the one-call harness: build the cluster, attach
the monitor, arm the campaign, measure, and return the lot.
"""

from __future__ import annotations

from dataclasses import field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.faults.behaviors import (
    corrupt_macs,
    corrupt_replies,
    crash_replica,
    delay_everything,
    equivocate_primary,
    make_silent,
    replay_stale_views,
    withhold_votes,
)
from repro.faults.invariants import InvariantMonitor
from repro.faults.network import (
    drop_fraction_for,
    duplicate_fraction,
    isolate_host,
    reorder_fraction,
)
from repro.faults.registry import GenContext, kind_for, register_fault_kind
from repro.faults.sequencer import (
    equivocate_sequencer,
    fail_sequencer,
    flap_sequencer,
)
from repro.records import record
from repro.sim.clock import format_duration, ms, us


# ---------------------------------------------------------------------------
# Declarative schedule
# ---------------------------------------------------------------------------


@record(frozen=True)
class FaultSpec:
    """What to break: a fault kind plus its parameters.

    ``kind`` names a registered :class:`~repro.faults.registry.FaultKind`;
    ``target`` is the kind-specific subject (a replica id for replica
    faults, a host address for network faults, ignored by sequencer
    faults); ``params`` carries the remaining keyword arguments of the
    underlying primitive.
    """

    kind: str
    target: Optional[int] = None
    params: Mapping = field(default_factory=dict)

    def describe(self) -> str:
        bits = [self.kind]
        if self.target is not None:
            bits.append(f"target={self.target}")
        bits.extend(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return " ".join(bits)


@record(frozen=True)
class FaultEvent:
    """One scheduled fault: inject at ``at_ns``, heal at ``until_ns``.

    ``until_ns=None`` means the fault stays live for the rest of the run
    (the campaign's :meth:`FaultCampaign.heal_all` still tears it down).
    """

    at_ns: int
    spec: FaultSpec
    until_ns: Optional[int] = None
    label: Optional[str] = None


# ---------------------------------------------------------------------------
# Injector registry: kind -> (cluster, spec, rng) -> heal
# ---------------------------------------------------------------------------


def _replica(cluster, spec: FaultSpec):
    if spec.target is None:
        raise ValueError(f"{spec.kind} needs a target replica id")
    return cluster.replica_by_id(spec.target)


def _sequencer(cluster, spec: FaultSpec):
    group_id = spec.params.get("group_id", cluster.options.group_id)
    return cluster.config_service.sequencer_for(group_id)


def _inject_crash_replica(cluster, spec, rng):
    return crash_replica(_replica(cluster, spec))


def _inject_silent_replica(cluster, spec, rng):
    return make_silent(_replica(cluster, spec))


def _inject_corrupt_replies(cluster, spec, rng):
    return corrupt_replies(_replica(cluster, spec))


def _inject_slow_replica(cluster, spec, rng):
    return delay_everything(_replica(cluster, spec), spec.params["delay_ns"])


def _inject_equivocate_primary(cluster, spec, rng):
    return equivocate_primary(
        _replica(cluster, spec), victims=spec.params.get("victims")
    )


def _inject_replay_stale_views(cluster, spec, rng):
    return replay_stale_views(
        _replica(cluster, spec), capacity=spec.params.get("capacity", 16)
    )


def _inject_corrupt_macs(cluster, spec, rng):
    return corrupt_macs(
        _replica(cluster, spec),
        fraction=spec.params.get("fraction", 1.0),
        rng=rng,
    )


def _inject_withhold_votes(cluster, spec, rng):
    return withhold_votes(_replica(cluster, spec))


def _inject_fail_sequencer(cluster, spec, rng):
    return fail_sequencer(_sequencer(cluster, spec))


def _inject_flap_sequencer(cluster, spec, rng):
    return flap_sequencer(
        cluster.sim,
        _sequencer(cluster, spec),
        down_ns=spec.params["down_ns"],
        up_ns=spec.params["up_ns"],
    )


def _inject_equivocate_sequencer(cluster, spec, rng):
    return equivocate_sequencer(
        _sequencer(cluster, spec),
        split=spec.params["split"],
        forge_auth=spec.params.get("forge_auth", True),
    )


def _inject_drop_fraction(cluster, spec, rng):
    return drop_fraction_for(cluster.fabric, spec.target, spec.params["fraction"], rng)


def _inject_duplicate(cluster, spec, rng):
    return duplicate_fraction(
        cluster.fabric,
        spec.params["fraction"],
        rng,
        extra_delay_ns=spec.params.get("extra_delay_ns", 500),
    )


def _inject_reorder(cluster, spec, rng):
    return reorder_fraction(
        cluster.fabric,
        spec.params["fraction"],
        spec.params["max_delay_ns"],
        rng,
    )


def _inject_isolate_host(cluster, spec, rng):
    if spec.target is None:
        raise ValueError("isolate_host needs a target host address")
    peers = spec.params.get("peers")
    if peers is None:
        peers = [a for a in cluster.group.replica_addrs if a != spec.target]
    return isolate_host(cluster.fabric, spec.target, peers)


def _inject_partition(cluster, spec, rng):
    groups: Sequence[Sequence[int]] = spec.params["groups"]
    return cluster.fabric.partition(
        pair
        for i, left in enumerate(groups)
        for right in groups[i + 1 :]
        for a in left
        for b in right
        for pair in ((a, b), (b, a))
    )


# ---------------------------------------------------------------------------
# Fuzz generators: (rng, ctx) -> (target, params)
#
# Parameter menus are deliberately small and discrete: a shrunk schedule
# should name values a human recognises, and coarse menus shrink faster
# than continuous draws. Replica host addresses are the replica ids
# (0..n-1, see runtime.cluster), so replica draws double as host draws.
# ---------------------------------------------------------------------------


def _gen_any_replica(rng, ctx: GenContext):
    return rng.choice(ctx.replica_ids), {}


def _gen_primaryish(rng, ctx: GenContext):
    # Leader faults bite hardest on the initial primary (replica 0);
    # weight it, but keep every replica in the pool.
    target = 0 if rng.random() < 0.75 else rng.choice(ctx.replica_ids)
    return target, {}


def _gen_slow_replica(rng, ctx: GenContext):
    return rng.choice(ctx.replica_ids), {
        "delay_ns": rng.choice((us(10), us(50), us(200)))
    }


def _gen_corrupt_macs(rng, ctx: GenContext):
    return rng.choice(ctx.replica_ids), {"fraction": rng.choice((0.25, 1.0))}


def _gen_drop_fraction(rng, ctx: GenContext):
    target = rng.choice(ctx.replica_ids) if rng.random() < 0.5 else None
    return target, {"fraction": rng.choice((0.01, 0.05, 0.2))}


def _gen_duplicate(rng, ctx: GenContext):
    return None, {
        "fraction": rng.choice((0.01, 0.05)),
        "extra_delay_ns": rng.choice((500, us(5))),
    }


def _gen_reorder(rng, ctx: GenContext):
    return None, {
        "fraction": rng.choice((0.02, 0.1)),
        "max_delay_ns": rng.choice((us(20), us(100))),
    }


def _gen_flap_sequencer(rng, ctx: GenContext):
    return None, {
        "down_ns": rng.choice((us(100), us(500))),
        "up_ns": rng.choice((us(200), ms(1))),
    }


def _gen_equivocate_sequencer(rng, ctx: GenContext):
    victim = rng.choice(ctx.replica_ids)
    forged = bytes(rng.randrange(256) for _ in range(32))
    return None, {"split": {victim: forged}}


register_fault_kind(
    "crash_replica", _inject_crash_replica, "replica", generate=_gen_any_replica
)
register_fault_kind(
    "silent_replica", _inject_silent_replica, "replica", generate=_gen_any_replica
)
register_fault_kind(
    "corrupt_replies", _inject_corrupt_replies, "replica", generate=_gen_any_replica
)
register_fault_kind(
    "slow_replica", _inject_slow_replica, "replica", generate=_gen_slow_replica
)
register_fault_kind(
    "equivocate_primary",
    _inject_equivocate_primary,
    "replica",
    requires=("stable_leader",),
    generate=_gen_primaryish,
)
register_fault_kind(
    "replay_stale_views",
    _inject_replay_stale_views,
    "replica",
    generate=_gen_any_replica,
)
register_fault_kind(
    "corrupt_macs", _inject_corrupt_macs, "replica", generate=_gen_corrupt_macs
)
register_fault_kind(
    "withhold_votes", _inject_withhold_votes, "replica", generate=_gen_any_replica
)
register_fault_kind(
    "fail_sequencer",
    _inject_fail_sequencer,
    "sequencer",
    requires=("sequencer",),
    generate=lambda rng, ctx: (None, {}),
)
register_fault_kind(
    "flap_sequencer",
    _inject_flap_sequencer,
    "sequencer",
    requires=("sequencer",),
    generate=_gen_flap_sequencer,
)
register_fault_kind(
    "equivocate_sequencer",
    _inject_equivocate_sequencer,
    "sequencer",
    # Only a family that tolerates a Byzantine sequencer claims to survive
    # a lying switch; under the hybrid model an equivocating sequencer is
    # outside the fault model, so fuzzing it there would report vacuous
    # "violations".
    requires=("byzantine_sequencer",),
    generate=_gen_equivocate_sequencer,
)
register_fault_kind(
    "drop_fraction", _inject_drop_fraction, "network", generate=_gen_drop_fraction
)
register_fault_kind(
    "duplicate", _inject_duplicate, "network", generate=_gen_duplicate
)
register_fault_kind("reorder", _inject_reorder, "network", generate=_gen_reorder)
register_fault_kind(
    "isolate_host", _inject_isolate_host, "replica", generate=_gen_any_replica
)
# partition is campaign-only (no generator): arbitrary group splits are
# better expressed by hand than drawn blind.
register_fault_kind("partition", _inject_partition, "network")


# ---------------------------------------------------------------------------
# The campaign
# ---------------------------------------------------------------------------


@record(frozen=True)
class TimelineEntry:
    """One thing the campaign did, stamped with virtual time."""

    time: int
    action: str  # "inject" | "heal"
    label: str
    detail: str

    def render(self) -> str:
        return f"[{format_duration(self.time):>12}] {self.action:<7} {self.label}: {self.detail}"


class FaultCampaign:
    """A validated schedule of fault events, executable on a cluster.

    Construction validates the whole schedule eagerly — unknown kinds,
    negative times, or heals that precede their injection fail before any
    virtual time elapses. :meth:`arm` rejects a kind that does not apply to
    the cluster's protocol before it schedules anything, and is one-shot: a
    campaign instance accumulates the timeline of exactly one run.
    """

    def __init__(self, events: Sequence[FaultEvent]):
        for index, event in enumerate(events):
            kind_for(event.spec.kind)  # raises on unknown kinds
            if event.at_ns < 0:
                raise ValueError(f"event {index}: at_ns must be >= 0, got {event.at_ns}")
            if event.until_ns is not None and event.until_ns <= event.at_ns:
                raise ValueError(
                    f"event {index}: until_ns ({event.until_ns}) must be after "
                    f"at_ns ({event.at_ns})"
                )
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: e.at_ns)
        )
        self.timeline: List[TimelineEntry] = []
        self._active_heals: List[Tuple[str, Callable[[], None]]] = []
        self._armed = False

    def _label_for(self, index: int, event: FaultEvent) -> str:
        return event.label or f"{event.spec.kind}#{index}"

    def arm(self, cluster) -> "FaultCampaign":
        """Schedule every event on the cluster's simulator."""
        if self._armed:
            raise RuntimeError("a FaultCampaign can only be armed once")
        protocol = cluster.options.protocol
        for index, event in enumerate(self.events):
            kind = kind_for(event.spec.kind)
            if not kind.applies_to(protocol):
                raise ValueError(
                    f"{self._label_for(index, event)}: fault kind {kind.name!r} "
                    f"needs a family row that sets {' and '.join(kind.requires)}, "
                    f"and protocol {protocol!r} does not"
                )
        self._armed = True
        sim = cluster.sim
        for index, event in enumerate(self.events):
            label = self._label_for(index, event)
            holder: List[Optional[Callable[[], None]]] = [None]

            def inject(event=event, label=label, holder=holder) -> None:
                rng = sim.streams.get(f"faults.{label}")
                undo = kind_for(event.spec.kind).injector(cluster, event.spec, rng)

                def heal_once() -> None:
                    # One restore per injection, no matter how many of
                    # the scheduled heal / heal_all() / a second
                    # heal_all() call race to fire it.
                    if holder[0] is None:
                        return
                    holder[0] = None
                    undo()
                    self._record(sim.now, "heal", label, event.spec.describe())

                holder[0] = heal_once
                self._active_heals.append((label, heal_once))
                self._record(sim.now, "inject", label, event.spec.describe())

            def scheduled_heal(holder=holder) -> None:
                heal_once = holder[0]
                if heal_once is not None:
                    heal_once()

            sim.schedule_at(event.at_ns, inject)
            if event.until_ns is not None:
                sim.schedule_at(event.until_ns, scheduled_heal)
        return self

    def heal_all(self) -> None:
        """Tear down every still-live fault, newest first.

        Idempotent: each injection restores exactly once, even when its
        scheduled heal already fired or ``heal_all`` is called twice.
        """
        while self._active_heals:
            _, heal_once = self._active_heals.pop()
            heal_once()

    def _record(self, time: int, action: str, label: str, detail: str) -> None:
        self.timeline.append(TimelineEntry(time, action, label, detail))

    def describe(self) -> str:
        """Human-readable timeline of what actually happened so far."""
        if not self.timeline:
            return "(no fault events fired yet)"
        return "\n".join(entry.render() for entry in self.timeline)


# ---------------------------------------------------------------------------
# Completion timeline (shared by the failover/chaos benches and tests)
# ---------------------------------------------------------------------------


class CompletionTimeline:
    """Buckets every client completion by virtual-time window.

    Chains onto each client's existing ``on_complete`` hook, so it
    composes with the measurement harness instead of replacing it.
    """

    def __init__(self, cluster, bucket_ns: int = ms(5)):
        if bucket_ns <= 0:
            raise ValueError(f"bucket_ns must be > 0, got {bucket_ns!r}")
        self.bucket_ns = bucket_ns
        self.buckets: Dict[int, int] = {}
        self.times: List[int] = []
        sim = cluster.sim
        for client in cluster.clients:
            original = client.on_complete

            def hook(request_id, latency_ns, result, _original=original):
                self.buckets[sim.now // self.bucket_ns] = (
                    self.buckets.get(sim.now // self.bucket_ns, 0) + 1
                )
                self.times.append(sim.now)
                if _original is not None:
                    _original(request_id, latency_ns, result)

            client.on_complete = hook

    def ops_in_bucket(self, index: int) -> int:
        """Completions inside bucket ``index``."""
        return self.buckets.get(index, 0)

    def bucket_of(self, time_ns: int) -> int:
        """Bucket index containing ``time_ns``."""
        return time_ns // self.bucket_ns

    def first_completion_after(self, time_ns: int) -> Optional[int]:
        """Earliest completion strictly after ``time_ns`` (None if none)."""
        return min((t for t in self.times if t > time_ns), default=None)

    def rate_between(self, start_ns: int, end_ns: int) -> float:
        """Completions per second of virtual time inside [start, end)."""
        if end_ns <= start_ns:
            return 0.0
        count = sum(1 for t in self.times if start_ns <= t < end_ns)
        return count / ((end_ns - start_ns) / 1e9)


# ---------------------------------------------------------------------------
# One-call harness
# ---------------------------------------------------------------------------


@record
class CampaignRun:
    """Everything a chaos run produced."""

    result: "RunResult"
    campaign: FaultCampaign
    completions: CompletionTimeline
    monitor: Optional[InvariantMonitor]
    cluster: "Cluster"


def run_campaign(
    options,
    campaign: FaultCampaign,
    warmup_ns: int = ms(2),
    duration_ns: int = ms(100),
    bucket_ns: int = ms(5),
    monitor: bool = True,
    next_op=None,
    **measurement_kwargs,
) -> CampaignRun:
    """Build a cluster, arm the campaign, measure, and return the lot.

    With ``monitor=True`` (the default) an :class:`InvariantMonitor` is
    attached before any fault fires, wired to the campaign's timeline; a
    safety violation aborts the run with the fault schedule attached.
    """
    from repro.runtime.cluster import build_cluster
    from repro.runtime.harness import Measurement

    cluster = build_cluster(options)
    attached_monitor = None
    if monitor:
        attached_monitor = InvariantMonitor(context=campaign.describe).attach(cluster)
    measurement = Measurement(
        cluster, warmup_ns, duration_ns, next_op, **measurement_kwargs
    )
    completions = CompletionTimeline(cluster, bucket_ns)
    campaign.arm(cluster)
    result = measurement.run()
    campaign.heal_all()
    return CampaignRun(
        result=result,
        campaign=campaign,
        completions=completions,
        monitor=attached_monitor,
        cluster=cluster,
    )
