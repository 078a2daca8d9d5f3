"""Tests for the discrete-event engine: ordering, cancellation, bounds."""

import pytest

from repro.sim import Simulator
from repro.sim.clock import format_duration, ms, ns, secs, us


class TestClock:
    def test_unit_conversions(self):
        assert us(1) == 1_000
        assert ms(1) == 1_000_000
        assert secs(1) == 1_000_000_000
        assert ns(1.6) == 2  # rounds

    def test_fractional_units(self):
        assert us(0.5) == 500
        assert ms(2.25) == 2_250_000

    def test_format_duration_picks_unit(self):
        assert format_duration(12) == "12ns"
        assert format_duration(us(12)) == "12.000us"
        assert format_duration(ms(3)) == "3.000ms"
        assert format_duration(secs(2)) == "2.000s"


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(300, fired.append, "c")
        sim.schedule(100, fired.append, "a")
        sim.schedule(200, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for tag in "abcde":
            sim.schedule(50, fired.append, tag)
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(123, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [123]
        assert sim.now == 123

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(50, lambda: None)

    def test_nested_scheduling_from_handler(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(10, inner)

        def inner():
            fired.append(("inner", sim.now))

        sim.schedule(5, outer)
        sim.run()
        assert fired == [("outer", 5), ("inner", 15)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(10, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_cancel_one_of_many(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(10, fired.append, "keep")
        drop = sim.schedule(10, fired.append, "drop")
        drop.cancel()
        sim.run()
        assert fired == ["keep"]
        assert keep.time == 10


class TestRunBounds:
    def test_run_until_parks_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "early")
        sim.schedule(5_000, fired.append, "late")
        sim.run(until=1_000)
        assert fired == ["early"]
        assert sim.now == 1_000
        sim.run()
        assert fired == ["early", "late"]

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(1_000, fired.append, "edge")
        sim.run(until=1_000)
        assert fired == ["edge"]

    def test_run_for_is_relative(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        assert sim.now == 100
        sim.run_for(50)
        assert sim.now == 150

    def test_max_events_bound(self):
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            sim.schedule(1, tick)

        sim.schedule(0, tick)
        sim.run(max_events=25)
        assert count[0] == 25

    def test_stop_halts_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2, fired.append, 2)
        sim.run()
        assert fired == [1]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_processed == 7

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        first.cancel()
        assert sim.peek_time() == 20


class TestPlainHeap:
    """Lazy cancel on a plain ``(time, seq)`` heap."""

    def test_cancelled_timer_never_fires(self):
        # A retransmit-style timer cancelled from a handler while the run
        # is in progress is skipped; its neighbours still fire.
        sim = Simulator()
        fired = []
        timer = sim.schedule(1 << 20, fired.append, "timer")
        sim.schedule(10, timer.cancel)
        sim.schedule(1 << 21, fired.append, "after")
        sim.run()
        assert fired == ["after"]

    def test_run_until_parks_while_later_events_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule(1 << 20, fired.append, "late")
        for bound in (1_000, 2_000):
            sim.run(until=bound)
            assert fired == [] and sim.now == bound
        sim.run()
        assert fired == ["late"] and sim.now == 1 << 20

    def test_same_instant_events_fire_in_scheduling_order(self):
        # Two events armed at different times, with different delays,
        # that land on the same instant fire in scheduling order.
        sim = Simulator()
        fired = []
        sim.schedule(1 << 20, fired.append, "first")
        sim.run(until=(1 << 20) - 1000)
        sim.schedule(1000, fired.append, "second")
        sim.run()
        assert fired == ["first", "second"]

    def test_live_events_counter(self):
        sim = Simulator()
        handles = [sim.schedule(i + (1 << 20), lambda: None) for i in range(10)]
        assert sim.live_events == 10
        for handle in handles[:4]:
            handle.cancel()
            handle.cancel()  # idempotent
        assert sim.live_events == 6
        sim.run()
        assert sim.live_events == 0

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        fired = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        sim.run(until=15)
        assert sim.live_events == 1
        fired.cancel()
        assert sim.live_events == 1
        assert not fired.cancelled
        sim.run()
        assert sim.live_events == 0

    def test_live_events_after_a_protocol_run(self):
        # Clients cancel retransmit timers that have already fired; the
        # counter must still read zero once nothing is pending.
        from repro.runtime import ClusterOptions, Measurement, build_cluster

        cluster = build_cluster(ClusterOptions(protocol="zyzzyva", num_clients=8, seed=7))
        Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(4)).run()
        assert cluster.sim.peek_time() is None
        assert cluster.sim.live_events == 0

    def test_mass_cancel_survivors_fire_in_order(self):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(1000 + (i * 7919) % 500, fired.append, i) for i in range(500)]
        for i, handle in enumerate(handles):
            if i % 10:  # cancel 90%
                handle.cancel()
        assert sim.live_events == 50
        sim.run()
        survivors = [i for i in range(500) if i % 10 == 0]
        assert fired == sorted(survivors, key=lambda i: (i * 7919) % 500)
        assert sim.live_events == 0


class TestDeterminism:
    def test_same_seed_same_random_streams(self):
        a = Simulator(seed=42).streams.get("x")
        b = Simulator(seed=42).streams.get("x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_independent(self):
        sim = Simulator(seed=42)
        a = sim.streams.get("a")
        b = sim.streams.get("b")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_fork_is_deterministic(self):
        x = Simulator(seed=7).streams.fork("replica-1").get("loss")
        y = Simulator(seed=7).streams.fork("replica-1").get("loss")
        assert x.random() == y.random()
