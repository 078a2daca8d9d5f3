"""Tests for the discrete-event engine: ordering, cancellation, bounds."""

import gc
import weakref

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


    def test_cancel_releases_callback_and_args(self):
        class Payload:
            def fire(self, *args):
                fired.append(args)

        sim = Simulator()
        fired = []
        target, arg = Payload(), Payload()
        refs = (weakref.ref(target), weakref.ref(arg))
        handle = sim.schedule(ms(1), target.fire, arg)
        sim.schedule(ms(2), lambda: None)
        del target, arg
        handle.cancel()
        gc.collect()
        # Collected while the dead entry is still in the heap, before its
        # deadline.
        assert sim.now == 0
        assert [ref() for ref in refs] == [None, None]
        sim.run()
        assert sim.now == ms(2)
        assert fired == []


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


class TestPostAt:
    """Handle-free events share the heap and the seq counter with handles."""

    def test_interleaves_with_handle_events_in_time_and_seq_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(20, fired.append, "handle@20")
        sim.post_at(10, fired.append, "post@10")
        sim.post_at(20, fired.append, "post@20")
        sim.schedule_at(10, fired.append, "handle@10")
        sim.post_at(5, fired.append, "post@5")
        sim.run()
        assert fired == ["post@5", "post@10", "handle@10", "handle@20", "post@20"]

    def test_counts_in_events_processed_and_live_events(self):
        sim = Simulator()
        sim.post_at(10, lambda: None)
        handle = sim.schedule(10, lambda: None)
        sim.post_at(30, lambda: None)
        assert sim.live_events == 3
        handle.cancel()
        assert sim.live_events == 2
        sim.run(until=20)
        assert sim.live_events == 1 and sim.events_processed == 1
        sim.run()
        assert sim.live_events == 0 and sim.events_processed == 2

    def test_run_until_pushes_entry_back_intact(self):
        sim = Simulator()
        fired = []
        sim.post_at(100, lambda *args: fired.append((sim.now, args)), "a", 2)
        assert sim.run(until=50) == 0
        assert sim.now == 50 and sim.peek_time() == 100
        sim.run()
        assert fired == [(100, ("a", 2))]

    def test_past_time_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.post_at(50, lambda: None)

    def test_peek_time_skips_cancelled_handle_before_post_entry(self):
        sim = Simulator()
        first = sim.schedule(10, lambda: None)
        sim.post_at(20, lambda: None)
        first.cancel()
        assert sim.peek_time() == 20
        assert sim.run() == 1


class TestTimerHeap:
    """Timers sit in their own heap; posts and timers share one order."""

    @pytest.mark.parametrize("timer_first", [True, False])
    def test_same_instant_timer_and_post_fire_in_scheduling_order(self, timer_first):
        sim = Simulator()
        fired = []
        if timer_first:
            sim.schedule_at(10, fired.append, "timer")
            sim.post_at(10, fired.append, "post")
        else:
            sim.post_at(10, fired.append, "post")
            sim.schedule_at(10, fired.append, "timer")
        sim.run()
        assert fired == (["timer", "post"] if timer_first else ["post", "timer"])

    def test_dead_timers_leave_before_their_deadline(self):
        sim = Simulator()
        for handle in [sim.schedule(ms(1), lambda: None) for _ in range(10_000)]:
            handle.cancel()
        live = sim.schedule(ms(2), lambda: None)
        fired = []
        sim.post_at(us(10), fired.append, "next")
        sim.run(until=us(20))
        assert fired == ["next"] and sim.now < ms(1)
        # Only the live timer is left: the engine's heaps hold no dead entry.
        assert sim._timers == [(live.time, live.seq, live)]
        assert sim._posts == []
        assert sim.live_events == 1

    def test_peek_time_prefers_an_earlier_post_and_skips_dead_timer_heads(self):
        sim = Simulator()
        dead = [sim.schedule(5, lambda: None) for _ in range(3)]
        sim.schedule(30, lambda: None)
        sim.post_at(20, lambda: None)
        assert sim.peek_time() == 5
        for handle in dead:
            handle.cancel()
        assert sim.peek_time() == 20
        assert len(sim._timers) == 1
        sim.run(until=25)
        assert sim.peek_time() == 30

    def test_live_events_exact_through_cancels_and_bounds(self):
        sim = Simulator()
        early = sim.schedule(10, lambda: None)
        doomed = sim.schedule(20, lambda: None)
        sim.post_at(15, lambda: None)
        late = sim.schedule(40, lambda: None)
        sim.post_at(50, lambda: None)
        assert sim.live_events == 5
        doomed.cancel()  # before it fires
        assert sim.live_events == 4
        doomed.cancel()  # twice
        assert sim.live_events == 4
        sim.run(until=12)
        assert sim.live_events == 3
        early.cancel()  # after it fired
        assert sim.live_events == 3
        sim.run(until=20)  # a bound on the dead timer's deadline
        assert sim.live_events == 2
        late.cancel()
        late.cancel()
        assert sim.live_events == 1
        sim.run(until=45)
        assert sim.live_events == 1 and sim.now == 45
        sim.run()
        assert sim.live_events == 0 and sim.events_processed == 3
        assert sim.peek_time() is None


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
