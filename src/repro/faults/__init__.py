"""Fault injection.

Byzantine end-host behaviours, network loss/partition/duplication/
reordering helpers, and sequencer faults (crash, flapping, equivocation)
— the knobs behind §6.2's faulty replica runs, §6.4's drop-rate sweep
and failover experiment, and the safety test suite's adversarial
schedules.

Two ways to use them:

- call a primitive directly (each returns an undo/heal function), or
- compose them into a :class:`~repro.faults.campaign.FaultCampaign` of
  timed inject/heal events executed on the virtual clock, with a
  :class:`~repro.faults.invariants.InvariantMonitor` checking safety on
  every commit while the faults are live (see ``docs/faults.md``).

The fuzzer's names (:mod:`repro.faults.fuzz`) load on first use, so a
campaign or a monitored run does not import the fuzzer.
"""

import importlib

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
from repro.faults.campaign import (
    CampaignRun,
    CompletionTimeline,
    FaultCampaign,
    FaultEvent,
    FaultSpec,
    TimelineEntry,
    run_campaign,
)
from repro.faults.invariants import InvariantMonitor, InvariantViolation
from repro.faults.linearizability import (
    CounterOp,
    LinearizabilityViolation,
    check_counter_history,
    check_counter_history_with_gaps,
)
from repro.faults.network import (
    drop_fraction_for,
    duplicate_fraction,
    isolate_host,
    reorder_fraction,
)
from repro.faults.registry import (
    FAULT_REGISTRY,
    FaultKind,
    GenContext,
    fuzzable_kinds,
    register_fault_kind,
    unregister_fault_kind,
)
from repro.faults.sequencer import equivocate_sequencer, fail_sequencer, flap_sequencer

#: Exported names whose module loads on first access.
_LAZY = dict.fromkeys(
    (
        "FuzzBudget",
        "FuzzCase",
        "FuzzOutcome",
        "FuzzReport",
        "fuzz_sweep",
        "generate_case",
        "load_artifact",
        "replay_artifact",
        "run_case",
        "save_artifact",
        "shrink_case",
    ),
    "repro.faults.fuzz",
)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "CampaignRun",
    "CompletionTimeline",
    "CounterOp",
    "FAULT_REGISTRY",
    "FaultCampaign",
    "FaultEvent",
    "FaultKind",
    "FaultSpec",
    "FuzzBudget",
    "FuzzCase",
    "FuzzOutcome",
    "FuzzReport",
    "GenContext",
    "InvariantMonitor",
    "InvariantViolation",
    "LinearizabilityViolation",
    "TimelineEntry",
    "check_counter_history",
    "check_counter_history_with_gaps",
    "corrupt_macs",
    "corrupt_replies",
    "crash_replica",
    "delay_everything",
    "drop_fraction_for",
    "duplicate_fraction",
    "equivocate_primary",
    "equivocate_sequencer",
    "fail_sequencer",
    "flap_sequencer",
    "fuzz_sweep",
    "fuzzable_kinds",
    "generate_case",
    "isolate_host",
    "load_artifact",
    "make_silent",
    "register_fault_kind",
    "reorder_fraction",
    "replay_artifact",
    "replay_stale_views",
    "run_campaign",
    "run_case",
    "save_artifact",
    "shrink_case",
    "unregister_fault_kind",
    "withhold_votes",
]
