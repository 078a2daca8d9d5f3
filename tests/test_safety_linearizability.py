"""Safety tests: linearizability of NeoBFT under faults, no-op exclusivity,
Byzantine reply rejection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.statemachine import CounterApp
from repro.faults.behaviors import corrupt_replies, make_silent
from repro.faults.linearizability import (
    CounterOp,
    LinearizabilityViolation,
    check_counter_history,
    check_counter_history_with_gaps,
    first_real_time_inversion,
)
from repro.net.profiles import NetworkProfile
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.sim.clock import ms

ONE = (1).to_bytes(8, "big", signed=True)


def run_counter_workload(protocol, seed, duration=ms(30), profile=None, fault=None,
                         replica_kwargs=None, clients=4):
    options = ClusterOptions(
        protocol=protocol,
        num_clients=clients,
        seed=seed,
        app_factory=CounterApp,
        profile=profile,
        replica_kwargs=replica_kwargs or {},
    )
    cluster = build_cluster(options)
    if fault is not None:
        fault(cluster)
    history = []
    measurement = Measurement(cluster, warmup_ns=0, duration_ns=duration,
                              next_op=lambda: ONE)
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
            _orig(request_id, latency, result)

        client.on_complete = hook
    measurement.run()
    for client in cluster.clients:
        client.next_op = lambda: None
    cluster.sim.run_for(ms(10))
    return cluster, history


class TestCheckerItself:
    def test_accepts_sequential_history(self):
        history = [
            CounterOp("c1", 0, 10, 1, 1),
            CounterOp("c2", 11, 20, 1, 2),
        ]
        check_counter_history(history)

    def test_rejects_duplicate_results(self):
        history = [
            CounterOp("c1", 0, 10, 1, 1),
            CounterOp("c2", 0, 10, 1, 1),
        ]
        with pytest.raises(LinearizabilityViolation):
            check_counter_history(history)

    def test_rejects_prefix_sum_gap(self):
        history = [
            CounterOp("c1", 0, 10, 1, 1),
            CounterOp("c2", 11, 20, 1, 3),
        ]
        with pytest.raises(LinearizabilityViolation):
            check_counter_history(history)

    def test_rejects_real_time_violation(self):
        history = [
            CounterOp("late", 100, 110, 1, 1),  # ordered first by result
            CounterOp("early", 0, 10, 1, 2),  # but finished before 'late' began
        ]
        with pytest.raises(LinearizabilityViolation):
            check_counter_history(history)

    def test_gap_tolerant_variant_accepts_holes(self):
        history = [
            CounterOp("c1", 0, 10, 1, 1),
            CounterOp("c2", 11, 20, 1, 5),  # holes: retried ops executed
        ]
        check_counter_history_with_gaps(history)


def reference_real_time_inversion(ordered):
    """The O(n^2) pairwise scan the checkers used to run; the reference."""
    for earlier_index, earlier in enumerate(ordered):
        for later in ordered[earlier_index + 1 :]:
            if later.completed_at < earlier.invoked_at:
                return earlier, later
    return None


def verdict(check, history):
    """``None`` when ``check`` accepts ``history``, else its message."""
    try:
        check(history)
    except LinearizabilityViolation as violation:
        return str(violation)
    return None


@st.composite
def histories_with_inversions(draw):
    """A linearizable delta-1 history whose results are then swapped.

    Each op gets a linearization point inside [invoked, completed] and its
    result is its rank by that point; swapping results of random pairs
    injects real-time inversions (and leaves prefix sums intact).
    """
    size = draw(st.integers(0, 40))
    points = draw(st.lists(st.integers(0, 200), min_size=size, max_size=size))
    spans = draw(
        st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                 min_size=size, max_size=size)
    )
    order = sorted(range(size), key=lambda index: (points[index], index))
    results = {op_index: rank + 1 for rank, op_index in enumerate(order)}
    if size >= 2:
        swaps = draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=4
        ))
        for a, b in swaps:
            results[a], results[b] = results[b], results[a]
    return [
        CounterOp(f"c{index}", points[index] - before, points[index] + after, 1,
                  results[index])
        for index, (before, after) in enumerate(spans)
    ]


class TestLinearRealTimeCheck:
    """The suffix-minimum scan reports exactly what the pairwise scan did."""

    @settings(max_examples=300, deadline=None)
    @given(histories_with_inversions())
    def test_same_pair_verdict_and_message(self, history):
        ordered = sorted(history, key=lambda op: op.result)
        pair = reference_real_time_inversion(ordered)
        found = first_real_time_inversion(ordered)
        assert found == pair
        if pair is None:
            assert verdict(check_counter_history, history) is None
            assert verdict(check_counter_history_with_gaps, history) is None
            return
        earlier, later = pair
        assert found[0] is earlier and found[1] is later
        assert verdict(check_counter_history, history) == (
            f"{later.client} completed at {later.completed_at} before "
            f"{earlier.client} was invoked at {earlier.invoked_at}, "
            "but is ordered after it"
        )
        assert verdict(check_counter_history_with_gaps, history) == (
            f"real-time order violated between {earlier.client} and "
            f"{later.client}"
        )

    def test_reports_lowest_earlier_then_lowest_later(self):
        ordered = [
            CounterOp("a", 0, 5, 1, 1),
            CounterOp("b", 50, 60, 1, 2),  # invoked after c and d completed
            CounterOp("c", 0, 30, 1, 3),
            CounterOp("d", 0, 20, 1, 4),
        ]
        earlier, later = first_real_time_inversion(ordered)
        assert (earlier.client, later.client) == ("b", "c")


@pytest.mark.parametrize(
    "protocol", ["neobft-hm", "neobft-pk", "neobft-bn", "pbft", "zyzzyva", "minbft"]
)
class TestFaultFreeLinearizability:
    def test_history_is_linearizable(self, protocol):
        _, history = run_counter_workload(protocol, seed=21, duration=ms(10))
        assert len(history) > 20
        check_counter_history(history)


class TestNeoBftUnderFaults:
    def test_linearizable_under_packet_loss(self):
        _, history = run_counter_workload(
            "neobft-hm", seed=22, duration=ms(50),
            profile=NetworkProfile(drop_rate=0.01),
        )
        assert len(history) > 100
        check_counter_history_with_gaps(history)

    def test_linearizable_under_heavy_loss(self):
        _, history = run_counter_workload(
            "neobft-hm", seed=23, duration=ms(50),
            profile=NetworkProfile(drop_rate=0.05),
        )
        assert len(history) > 50
        check_counter_history_with_gaps(history)

    def test_linearizable_with_silent_replica(self):
        _, history = run_counter_workload(
            "neobft-hm", seed=24, duration=ms(20),
            fault=lambda cluster: make_silent(cluster.replicas[2]),
        )
        assert len(history) > 50
        check_counter_history(history)

    def test_linearizable_with_reply_corruption(self):
        cluster, history = run_counter_workload(
            "neobft-hm", seed=25, duration=ms(20),
            fault=lambda cluster: corrupt_replies(cluster.replicas[1]),
        )
        assert len(history) > 50
        check_counter_history(history)
        corrupted = cluster.replicas[1].metrics.get("byzantine_corrupted")
        assert corrupted > 0  # the fault really fired
        # No accepted result carries the corruption marker.
        assert all(op.result < 2**40 for op in history)

    def test_linearizable_through_sequencer_failover(self):
        from repro.faults.sequencer import fail_sequencer

        def fault(cluster):
            cluster.sim.schedule(
                ms(5),
                lambda: fail_sequencer(cluster.config_service.sequencer_for(1)),
            )

        cluster, history = run_counter_workload(
            "neobft-hm", seed=26, duration=ms(220), fault=fault,
        )
        assert cluster.config_service.failovers_completed == 1
        check_counter_history_with_gaps(history)
        # Progress resumed after failover: some op completed well after it.
        assert max(op.completed_at for op in history) > ms(120)

    def test_replica_logs_agree_after_loss(self):
        cluster, _ = run_counter_workload(
            "neobft-hm", seed=27, duration=ms(40),
            profile=NetworkProfile(drop_rate=0.02),
        )
        shortest = min(len(r.log) for r in cluster.replicas)
        if shortest:
            heads = {r.log.hash_up_to(shortest - 1) for r in cluster.replicas}
            assert len(heads) == 1
