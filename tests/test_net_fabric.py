"""Tests for the network fabric: delays, loss, partitions, FIFO, multicast."""

import pytest

from repro.net import Endpoint, Fabric, GroupAddress, LinkProfile, NetworkProfile
from repro.net.fabric import GroupHandler
from repro.net.packet import Packet, wire_size_of
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.sim import Simulator
from repro.sim.clock import ms, us


class Sink(Endpoint):
    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.received = []

    def on_message(self, src, message):
        self.received.append((src, message, self.sim.now))


def make_pair(profile=None, seed=1):
    sim = Simulator(seed=seed)
    fabric = Fabric(sim, profile)
    a, b = Sink(sim, "a"), Sink(sim, "b")
    a.attach(fabric)
    b.attach(fabric)
    return sim, fabric, a, b


class TestUnicast:
    def test_delivery(self):
        sim, fabric, a, b = make_pair()
        a.execute_now(a.send, b.address, "hello")
        sim.run()
        assert [(src, msg) for src, msg, _ in b.received] == [(a.address, "hello")]

    def test_delay_matches_profile(self):
        profile = NetworkProfile(link=LinkProfile(jitter_ns=0))
        sim, fabric, a, b = make_pair(profile)
        a.execute_now(a.send, b.address, "x")
        sim.run()
        _, _, arrival = b.received[0]
        expected_net = profile.one_way_ns(wire_size_of("x"))
        # arrival includes the sender's CPU send charge before departure.
        assert arrival >= expected_net

    def test_unroutable_counted(self):
        sim, fabric, a, b = make_pair()
        a.execute_now(a.send, 999, "void")
        sim.run()
        assert fabric.counters.get("unroutable") == 1
        assert b.received == []

    def test_duplicate_address_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim)
        Sink(sim).attach(fabric, 5)
        with pytest.raises(ValueError):
            Sink(sim).attach(fabric, 5)

    def test_send_before_attach_rejected(self):
        sim = Simulator()
        orphan = Sink(sim)
        with pytest.raises(RuntimeError):
            orphan.send(0, "x")


class TestFifoPerPair:
    def test_order_preserved_despite_jitter(self):
        profile = NetworkProfile(link=LinkProfile(jitter_ns=us(5)))
        sim, fabric, a, b = make_pair(profile)

        def send_all():
            for i in range(50):
                a.send(b.address, i)

        a.execute_now(send_all)
        sim.run()
        assert [msg for _, msg, _ in b.received] == list(range(50))

    def test_reordering_allowed_when_disabled(self):
        profile = NetworkProfile(
            link=LinkProfile(jitter_ns=us(30)), fifo_per_pair=False
        )
        sim, fabric, a, b = make_pair(profile, seed=3)

        def send_all():
            for i in range(100):
                a.send(b.address, i)

        a.execute_now(send_all)
        sim.run()
        order = [msg for _, msg, _ in b.received]
        assert sorted(order) == list(range(100))
        assert order != list(range(100))  # jitter shuffled something


class TestLossAndPartition:
    def test_uniform_loss_rate(self):
        profile = NetworkProfile(drop_rate=0.5)
        sim, fabric, a, b = make_pair(profile)

        def send_all():
            for i in range(400):
                a.send(b.address, i)

        a.execute_now(send_all)
        sim.run()
        lost = fabric.counters.get("lost")
        assert 120 < lost < 280  # ~200 expected
        assert len(b.received) == 400 - lost

    def test_drop_rate_validation(self):
        with pytest.raises(ValueError):
            NetworkProfile().with_drop_rate(1.5)

    def test_partition_blocks_direction(self):
        sim, fabric, a, b = make_pair()
        fabric.partition(a.address, b.address, bidirectional=False)
        a.execute_now(a.send, b.address, "blocked")
        b.execute_now(b.send, a.address, "allowed")
        sim.run()
        assert b.received == []
        assert len(a.received) == 1

    def test_heal_restores(self):
        sim, fabric, a, b = make_pair()
        fabric.partition(a.address, b.address)
        fabric.heal(a.address, b.address)
        a.execute_now(a.send, b.address, "ok")
        sim.run()
        assert len(b.received) == 1

    def test_drop_filter_and_removal(self):
        sim, fabric, a, b = make_pair()
        remove = fabric.add_drop_filter(lambda pkt: pkt.message == "evil")
        a.execute_now(a.send, b.address, "evil")
        a.execute_now(a.send, b.address, "good")
        sim.run()
        assert [m for _, m, _ in b.received] == ["good"]
        remove()
        a.execute_now(a.send, b.address, "evil")
        sim.run()
        assert [m for _, m, _ in b.received] == ["good", "evil"]


class CollectingHandler(GroupHandler):
    def __init__(self):
        self.packets = []

    def on_packet(self, packet, arrival):
        self.packets.append((packet, arrival))


class TestMulticastRouting:
    def test_group_packets_reach_handler(self):
        sim, fabric, a, b = make_pair()
        handler = CollectingHandler()
        group = GroupAddress(9)
        fabric.register_group(group, handler)
        a.execute_now(a.send, group, "to-group")
        sim.run()
        assert len(handler.packets) == 1
        packet, arrival = handler.packets[0]
        assert packet.message == "to-group"
        assert arrival > 0

    def test_unregistered_group_unroutable(self):
        sim, fabric, a, b = make_pair()
        a.execute_now(a.send, GroupAddress(1), "void")
        sim.run()
        assert fabric.counters.get("unroutable") == 1

    def test_unregister_group(self):
        sim, fabric, a, b = make_pair()
        handler = CollectingHandler()
        group = GroupAddress(9)
        fabric.register_group(group, handler)
        fabric.unregister_group(group)
        a.execute_now(a.send, group, "late")
        sim.run()
        assert handler.packets == []


class TestWireSizes:
    def test_primitives(self):
        assert wire_size_of(5) == 42 + 8
        assert wire_size_of(b"abc") == 42 + 3
        assert wire_size_of(None) == 42 + 1

    def test_collections(self):
        assert wire_size_of([1, 2]) == 42 + 2 + 16

    def test_explicit_wire_size_method_wins(self):
        class Sized:
            def wire_size(self):
                return 1000

        assert wire_size_of(Sized()) == 1042

    def test_dataclass_estimation(self):
        from dataclasses import dataclass

        @dataclass
        class Msg:
            a: int
            b: bytes

        assert wire_size_of(Msg(1, b"xyz")) == 42 + 2 + 8 + 3

    def test_larger_messages_take_longer(self):
        profile = NetworkProfile(link=LinkProfile(jitter_ns=0))
        small = profile.one_way_ns(64)
        large = profile.one_way_ns(64_000)
        assert large > small


class TestFabricWatermarkPruning:
    def test_stale_fifo_watermarks_are_swept(self):
        sim = Simulator()
        fabric = Fabric(sim)
        fabric._prune_interval = 4
        fabric._deliveries_until_prune = 4
        # Seed watermarks in the past and the future.
        sim.schedule(ms(1), lambda: None)
        sim.run()
        fabric._last_arrival = {
            (0, 1): sim.now - 100,          # stale: can never clamp again
            (2, 3): sim.now + ms(5),        # in-flight: must survive
        }
        fabric._prune_fifo_watermarks()
        assert (0, 1) not in fabric._last_arrival
        assert fabric._last_arrival[(2, 3)] == sim.now + ms(5)
        assert fabric._deliveries_until_prune == 4

    def test_watermark_map_stays_bounded_under_load(self):
        # A run touches a handful of (src, dst) pairs; the map must not
        # grow with delivery count (it is pruned to in-flight pairs).
        cluster = build_cluster(ClusterOptions(protocol="neobft-hm", seed=7, num_clients=4))
        cluster.fabric._prune_interval = 64
        cluster.fabric._deliveries_until_prune = 64
        Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(3)).run()
        pairs = len(cluster.fabric._last_arrival)
        endpoints = len(cluster.fabric._endpoints)
        assert pairs <= endpoints * endpoints
