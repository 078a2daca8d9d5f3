"""Profiles, fault helpers, endpoint counters and interposer chains."""

import pytest

from repro.faults.behaviors import delay_everything, make_silent
from repro.faults.network import (
    drop_fraction_for,
    duplicate_fraction,
    isolate_host,
    reorder_fraction,
)
from repro.net import (
    DuplicateInjector,
    Endpoint,
    Fabric,
    LinkProfile,
    NetworkProfile,
    ReorderInjector,
)
from repro.net.packet import wire_size_of
from repro.net.profiles import DEFAULT_PROFILE, LOSSY_PROFILE, WAN_PROFILE
from repro.sim import Simulator
from repro.sim.clock import us


class Echo(Endpoint):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.seen = []

    def on_message(self, src, message):
        self.seen.append(message)


def pair():
    sim = Simulator(seed=2)
    fabric = Fabric(sim)
    a, b = Echo(sim, "a"), Echo(sim, "b")
    a.attach(fabric)
    b.attach(fabric)
    return sim, fabric, a, b


class TestProfiles:
    def test_serialization_scales_with_size(self):
        link = LinkProfile(bandwidth_gbps=100.0)
        assert link.serialization_ns(1250) == 100  # 10 KBit at 100 Gbps
        assert link.serialization_ns(125) == 10

    def test_wan_profile_slower_than_rack(self):
        assert WAN_PROFILE.one_way_ns(100) > 50 * DEFAULT_PROFILE.one_way_ns(100)

    def test_lossy_profile_has_drop_rate(self):
        assert LOSSY_PROFILE.drop_rate == 0.001

    def test_with_drop_rate_is_pure(self):
        base = NetworkProfile()
        lossy = base.with_drop_rate(0.1)
        assert base.drop_rate == 0.0
        assert lossy.drop_rate == 0.1


class TestFaultHelpers:
    def test_silent_restore(self):
        sim, fabric, a, b = pair()
        restore = make_silent(b)
        a.execute_now(a.send, b.address, "muted")
        sim.run()
        assert b.seen == []
        restore()
        a.execute_now(a.send, b.address, "heard")
        sim.run()
        assert b.seen == ["heard"]

    def test_drop_fraction_validation(self):
        sim, fabric, a, b = pair()
        rng = sim.streams.get("x")
        with pytest.raises(ValueError):
            drop_fraction_for(fabric, b.address, 1.5, rng)

    def test_drop_fraction_applies_and_removes(self):
        sim, fabric, a, b = pair()
        rng = sim.streams.get("x")
        remove = drop_fraction_for(fabric, b.address, 1.0, rng)

        def burst():
            for i in range(10):
                a.send(b.address, i)

        a.execute_now(burst)
        sim.run()
        assert b.seen == []
        remove()
        a.execute_now(a.send, b.address, "ok")
        sim.run()
        assert b.seen == ["ok"]

    def test_isolate_and_heal(self):
        sim, fabric, a, b = pair()
        heal = isolate_host(fabric, a.address, [b.address])
        a.execute_now(a.send, b.address, "blocked")
        b.execute_now(b.send, a.address, "blocked-too")
        sim.run()
        assert b.seen == [] and a.seen == []
        heal()
        a.execute_now(a.send, b.address, "open")
        sim.run()
        assert b.seen == ["open"]

    def test_delay_everything_charges(self):
        sim, fabric, a, b = pair()
        delay_everything(b, us(100))
        a.execute_now(a.send, b.address, "slow")
        sim.run()
        assert b.cpu.busy_ns >= us(100)

    def test_isolate_heal_is_idempotent(self):
        sim, fabric, a, b = pair()
        heal = isolate_host(fabric, a.address, [b.address])
        heal()
        heal()  # double-heal must not raise
        a.execute_now(a.send, b.address, "open")
        sim.run()
        assert b.seen == ["open"]


class TestInjectors:
    def test_fraction_validated_at_construction(self):
        rng = Simulator(seed=1).streams.get("x")
        with pytest.raises(ValueError):
            DuplicateInjector(-0.1, rng)
        with pytest.raises(ValueError):
            DuplicateInjector(1.5, rng)
        with pytest.raises(ValueError):
            DuplicateInjector(0.5, rng, extra_delay_ns=-1)
        with pytest.raises(ValueError):
            ReorderInjector(2.0, 1000, rng)
        with pytest.raises(ValueError):
            ReorderInjector(0.5, 0, rng)

    def test_helpers_validate_eagerly(self):
        sim, fabric, a, b = pair()
        rng = sim.streams.get("x")
        with pytest.raises(ValueError):
            duplicate_fraction(fabric, 7.0, rng)
        with pytest.raises(ValueError):
            reorder_fraction(fabric, 0.5, -5, rng)

    def test_duplicate_delivers_extra_copies(self):
        sim, fabric, a, b = pair()
        rng = sim.streams.get("x")
        remove = duplicate_fraction(fabric, 1.0, rng)
        a.execute_now(a.send, b.address, "twin")
        sim.run()
        assert b.seen == ["twin", "twin"]
        assert sim.metrics.snapshot().counter("net.packets", event="duplicated") == 1
        remove()
        a.execute_now(a.send, b.address, "single")
        sim.run()
        assert b.seen == ["twin", "twin", "single"]

    def test_reorder_lets_later_packets_overtake(self):
        sim, fabric, a, b = pair()
        rng = sim.streams.get("x")
        # Hold back only the first message, far past the second's arrival.
        held = []

        def first_only(packet):
            if not held:
                held.append(packet)
                return True
            return False

        remove = reorder_fraction(fabric, 1.0, us(500), rng, predicate=first_only)

        def burst():
            a.send(b.address, "early")
            a.send(b.address, "late")

        a.execute_now(burst)
        sim.run()
        assert b.seen == ["late", "early"]
        assert sim.metrics.snapshot().counter("net.packets", event="reordered") == 1
        remove()


class TestEndpointCounters:
    def test_send_and_receive_counted(self):
        sim, fabric, a, b = pair()
        for _ in range(2):
            a.execute_now(a.send, b.address, "x")
        sim.run()
        snap = sim.metrics.snapshot()
        assert snap.counter("net.sent", host=a.name) == 2
        assert snap.counter("net.received", host=b.name) == 2


class TestInterposers:
    def test_receive_interposer_replaces_and_drops(self):
        sim, fabric, a, b = pair()
        b.add_receive_interposer(
            lambda src, m: None if m == "drop" else m.upper()
        )
        for _ in range(2):
            a.execute_now(a.send, b.address, "drop")
        a.execute_now(a.send, b.address, "keep")
        sim.run()
        assert b.seen == ["KEEP"]
        assert sim.metrics.snapshot().counter("net.received", host=b.name) == 3

    def test_receive_interposer_runs_after_receive_charge(self):
        sim, fabric, a, b = pair()
        charged = []
        b.add_receive_interposer(lambda src, m: charged.append(b._charged))
        a.execute_now(a.send, b.address, "x")
        sim.run()
        assert charged == [b.cost.message_cost(wire_size_of("x"))]
        assert b.seen == []

    def test_removing_one_leaves_the_other(self):
        sim, fabric, a, b = pair()
        remove_tag = b.add_receive_interposer(lambda src, m: m + "-tagged")
        b.add_receive_interposer(lambda src, m: m + "-seen")
        remove_tag()
        a.execute_now(a.send, b.address, "x")
        sim.run()
        assert b.seen == ["x-seen"]

    def test_remover_called_twice_is_a_noop(self):
        sim, fabric, a, b = pair()
        remove = b.add_receive_interposer(lambda src, m: None)
        b.add_receive_interposer(lambda src, m: m + "-kept")
        remove()
        remove()
        a.execute_now(a.send, b.address, "x")
        sim.run()
        assert b.seen == ["x-kept"]

    def test_send_interposer_on_plain_endpoint(self):
        sim, fabric, a, b = pair()
        remove = a.add_send_interposer(
            lambda dst, m: None if m == "drop" else (dst, m)
        )
        a.execute_now(a.send, b.address, "drop")
        a.execute_now(a.send, b.address, "x")
        sim.run()
        assert b.seen == [(b.address, "x")]
        assert sim.metrics.snapshot().counter("net.sent", host=a.name) == 1
        remove()
        a.execute_now(a.send, b.address, "y")
        sim.run()
        assert b.seen[-1] == "y"
