"""The fault-schedule fuzzer: determinism, budgets, shrinking, replay.

Acceptance bar: the same (protocol, seed) yields a bit-identical
generated schedule and run outcome whether executed serially or under a
worker pool; generated schedules respect the <= f concurrent replica
fault budget; a known-bad schedule shrinks to <= 3 events; and replaying
the shrunk JSON artifact reproduces the same violation from its embedded
seed.
"""

import json

import pytest

from repro.faults import fuzz
from repro.faults.campaign import FaultEvent, FaultSpec
from repro.faults.registry import (
    fuzzable_kinds,
    kind_for,
    register_fault_kind,
    unregister_fault_kind,
)
from repro.protocols.log import EntryKind, LogEntry
from repro.runtime.cluster import ALL_PROTOCOLS, family_of
from repro.sim.clock import ms


# ---------------------------------------------------------------------------
# Deterministic generation (satellite: single named RNG stream)
# ---------------------------------------------------------------------------


class TestGeneration:
    def test_same_seed_same_schedule(self):
        a = fuzz.generate_case("pbft", 42)
        b = fuzz.generate_case("pbft", 42)
        assert a == b

    def test_different_seeds_diverge(self):
        schedules = [fuzz.generate_case("pbft", seed).events for seed in range(8)]
        assert any(events != schedules[0] for events in schedules[1:])

    def test_generation_immune_to_global_random_state(self):
        import random

        a = fuzz.generate_case("neobft-hm", 7)
        random.seed(999)
        random.random()
        b = fuzz.generate_case("neobft-hm", 7)
        assert a == b

    def test_budget_caps_concurrent_replica_faults(self):
        for seed in range(20):
            case = fuzz.generate_case("pbft", seed, f=1)
            horizon = case.warmup_ns + case.duration_ns
            assert (
                fuzz._max_concurrent_replica_targets(case.events, horizon) <= 1
            ), f"seed {seed} exceeds the f=1 replica fault budget"

    def test_only_applicable_kinds_drawn(self):
        assert family_of("pbft").sequencer is None
        for seed in range(20):
            for event in fuzz.generate_case("pbft", seed).events:
                kind = kind_for(event.spec.kind)
                assert kind.applies_to("pbft")
                assert "sequencer" not in kind.requires
                assert kind.category != "sequencer"  # pbft has no sequencer

    def test_sequencer_equivocation_only_under_bn(self):
        assert kind_for("equivocate_sequencer").requires == ("byzantine_sequencer",)
        assert not family_of("neobft-hm").byzantine_sequencer
        assert family_of("neobft-bn").byzantine_sequencer
        names_hm = {k.name for k in fuzzable_kinds("neobft-hm")}
        names_bn = {k.name for k in fuzzable_kinds("neobft-bn")}
        assert "equivocate_sequencer" not in names_hm
        assert "equivocate_sequencer" in names_bn

    def test_fuzzable_kinds_per_protocol(self):
        # Every family is fuzzed with these kinds; the family rows decide
        # which of the sequencer and leader kinds join the common eleven.
        common = [
            "corrupt_macs", "corrupt_replies", "crash_replica", "drop_fraction",
            "duplicate", "isolate_host", "reorder", "replay_stale_views",
            "silent_replica", "slow_replica", "withhold_votes",
        ]
        sequenced = sorted(common + ["fail_sequencer", "flap_sequencer"])
        leader = sorted(common + ["equivocate_primary"])
        expected = {
            "neobft-hm": sequenced,
            "neobft-pk": sequenced,
            "neobft-bn": sorted(sequenced + ["equivocate_sequencer"]),
            "pbft": leader,
            "zyzzyva": leader,
            "hotstuff": leader,
            "minbft": leader,
            "unreplicated": common,
        }
        assert set(expected) == set(ALL_PROTOCOLS)
        for protocol, names in expected.items():
            assert [k.name for k in fuzzable_kinds(protocol)] == names, protocol

    def test_events_carry_stable_labels(self):
        case = fuzz.generate_case("pbft", 3)
        labels = [event.label for event in case.events]
        assert all(label and label.startswith("fuzz-") for label in labels)
        assert len(set(labels)) == len(labels)


# ---------------------------------------------------------------------------
# Deterministic execution, serial == parallel
# ---------------------------------------------------------------------------


class TestExecutionDeterminism:
    def test_same_case_same_outcome(self):
        case = fuzz.generate_case("pbft", 5)
        a = fuzz.run_case(case)
        b = fuzz.run_case(case)
        assert a.completed_ops == b.completed_ops
        assert a.invariant_checks == b.invariant_checks
        assert a.fired_events == b.fired_events
        assert (a.violation is None) == (b.violation is None)

    def test_sweep_serial_matches_parallel(self):
        serial = fuzz.fuzz_sweep(["pbft"], range(3), workers=1, shrink=False)
        parallel = fuzz.fuzz_sweep(["pbft"], range(3), workers=2, shrink=False)
        assert serial.cases_run == parallel.cases_run
        assert serial.completed_ops == parallel.completed_ops
        assert serial.invariant_checks == parallel.invariant_checks
        assert [f.shrunk for f in serial.findings] == [
            f.shrunk for f in parallel.findings
        ]


# ---------------------------------------------------------------------------
# Shrinking (satellite: minimality + replay) via an injected bad kind
# ---------------------------------------------------------------------------


def _sabotage_agreement(cluster, spec, rng):
    """Force two replicas to commit conflicting digests at one slot."""
    victims = [r for r in cluster.replicas if hasattr(r, "log")][:2]
    slot = max(len(r.log) for r in victims)
    for index, replica in enumerate(victims):
        while len(replica.log) < slot:
            replica.log.append(LogEntry(kind=EntryKind.NOOP, digest=b"pad"))
        replica.log.append(
            LogEntry(kind=EntryKind.NOOP, digest=bytes([index]) * 32)
        )
        replica.log.mark_committed_up_to(slot)
    return lambda: None


@pytest.fixture(scope="class")
def sabotage_kind():
    register_fault_kind(
        "sabotage_agreement",
        _sabotage_agreement,
        "custom",
        generate=lambda rng, ctx: (None, {}),
    )
    yield "sabotage_agreement"
    unregister_fault_kind("sabotage_agreement")


def _noisy_bad_case():
    """A known-bad schedule padded with irrelevant noise events."""
    noise = tuple(
        FaultEvent(
            at_ns=ms(3) + i * ms(1),
            spec=FaultSpec("silent_replica", target=1),
            until_ns=ms(4) + i * ms(1),
            label=f"noise-{i}",
        )
        for i in range(4)
    )
    bomb = FaultEvent(
        at_ns=ms(8), spec=FaultSpec("sabotage_agreement"), label="bomb"
    )
    return fuzz.FuzzCase(protocol="neobft-hm", seed=3, events=noise + (bomb,))


@pytest.fixture(scope="class")
def shrunk_bad_case(sabotage_kind):
    """The noisy bad case, its outcome and its shrink, computed once."""
    case = _noisy_bad_case()
    outcome = fuzz.run_case(case)
    shrunk, stats = fuzz.shrink_case(case, outcome.violation)
    return case, outcome, shrunk, stats


class TestShrinking:
    def test_shrinks_to_minimal_reproducer(self, shrunk_bad_case):
        _, outcome, shrunk, stats = shrunk_bad_case
        assert outcome.violation is not None
        assert outcome.violation.kind == "invariant"
        assert len(shrunk.events) <= 3
        assert any(e.spec.kind == "sabotage_agreement" for e in shrunk.events)
        assert stats.original_events == 5
        assert stats.oracle_runs <= 64

    def test_shrunk_artifact_replays_same_violation(self, shrunk_bad_case, tmp_path):
        case, outcome, shrunk, _ = shrunk_bad_case
        path = fuzz.save_artifact(tmp_path / "repro.json", shrunk, outcome.violation)
        # The artifact is self-describing JSON...
        payload = json.loads(path.read_text())
        assert payload["format"] == fuzz.ARTIFACT_FORMAT
        assert payload["seed"] == case.seed
        assert payload["violation"]["kind"] == "invariant"
        # ...and replaying it reproduces the identical violation.
        replayed = fuzz.replay_artifact(path)
        assert replayed.violation is not None
        assert replayed.violation.kind == outcome.violation.kind
        assert replayed.violation.signature == outcome.violation.signature


# ---------------------------------------------------------------------------
# Artifact round-trips
# ---------------------------------------------------------------------------


class TestArtifacts:
    def test_roundtrip_preserves_case(self, tmp_path):
        case = fuzz.generate_case("neobft-bn", 9)
        path = fuzz.save_artifact(tmp_path / "case.json", case)
        loaded, violation = fuzz.load_artifact(path)
        assert loaded == case
        assert violation is None

    def test_roundtrip_preserves_bytes_and_int_keys(self, tmp_path):
        events = (
            FaultEvent(
                at_ns=ms(5),
                spec=FaultSpec(
                    "equivocate_sequencer",
                    params={"split": {2: b"\x00\xffdigest"}},
                ),
                label="eq",
            ),
        )
        case = fuzz.FuzzCase(protocol="neobft-bn", seed=1, events=events)
        loaded, _ = fuzz.load_artifact(fuzz.save_artifact(tmp_path / "c.json", case))
        split = loaded.events[0].spec.params["split"]
        assert split == {2: b"\x00\xffdigest"}
        assert isinstance(next(iter(split)), int)

    def test_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a fuzz artifact"):
            fuzz.load_artifact(path)


# ---------------------------------------------------------------------------
# Violation signatures
# ---------------------------------------------------------------------------


class TestSignatures:
    def test_digits_times_and_digests_normalised(self):
        a = fuzz._signature(
            "invariant",
            "conflicting commits at slot 17: replica-1 committed a3f4b201cafe "
            "but replica-2 committed 00ff00ff00ff",
        )
        b = fuzz._signature(
            "invariant",
            "conflicting commits at slot 90210: replica-3 committed deadbeef0123 "
            "but replica-0 committed 777777777777",
        )
        assert a == b

    def test_distinct_failures_stay_distinct(self):
        a = fuzz._signature("invariant", "conflicting commits at slot 1: ...")
        b = fuzz._signature("invariant", "committed prefix shrank from 9 to 3")
        assert a != b
