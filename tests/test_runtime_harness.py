"""Tests for the cluster builder and measurement harness."""

import pytest

from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.runtime.cluster import ALL_PROTOCOLS
from repro.runtime.harness import (
    default_echo_op,
    latency_throughput_sweep,
    max_throughput,
    run_once,
    run_sweep,
)
from repro.sim.clock import ms


class TestClusterOptions:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            build_cluster(ClusterOptions(protocol="raft"))

    def test_default_replica_counts(self):
        assert ClusterOptions(protocol="pbft", f=1).resolved_replicas() == 4
        assert ClusterOptions(protocol="pbft", f=2).resolved_replicas() == 7
        assert ClusterOptions(protocol="minbft", f=1).resolved_replicas() == 3
        assert ClusterOptions(protocol="unreplicated").resolved_replicas() == 1

    def test_explicit_replica_count_wins(self):
        options = ClusterOptions(protocol="neobft-hm", f=1, num_replicas=7)
        assert options.resolved_replicas() == 7

    def test_batch_resolution(self):
        assert ClusterOptions(protocol="pbft").resolved_batch(6) == 6
        assert ClusterOptions(protocol="pbft", batch_size=32).resolved_batch(6) == 32


class TestBuildCluster:
    def test_replica_addresses_are_dense(self):
        cluster = build_cluster(ClusterOptions(protocol="neobft-hm"))
        assert [r.address for r in cluster.replicas] == [0, 1, 2, 3]

    def test_every_protocol_builds(self):
        for protocol in ALL_PROTOCOLS:
            cluster = build_cluster(ClusterOptions(protocol=protocol, num_clients=1))
            assert cluster.clients, protocol

    def test_neobft_group_registered(self):
        cluster = build_cluster(ClusterOptions(protocol="neobft-hm"))
        assert cluster.config_service.sequencer_for(1) is not None
        for replica in cluster.replicas:
            assert replica.aom_lib.epoch == 1

    def test_bn_mode_gets_pairwise_confirms(self):
        cluster = build_cluster(ClusterOptions(protocol="neobft-bn"))
        for replica in cluster.replicas:
            assert replica.aom_lib.pairwise is not None


class TestMeasurement:
    def test_determinism_same_seed(self):
        a = run_once(ClusterOptions(protocol="neobft-hm", num_clients=3, seed=4),
                     warmup_ns=ms(1), duration_ns=ms(5))
        b = run_once(ClusterOptions(protocol="neobft-hm", num_clients=3, seed=4),
                     warmup_ns=ms(1), duration_ns=ms(5))
        assert a.throughput_ops == b.throughput_ops
        assert a.latency.median() == b.latency.median()
        assert a.completions == b.completions

    def test_different_seeds_differ(self):
        a = run_once(ClusterOptions(protocol="neobft-hm", num_clients=3, seed=4),
                     warmup_ns=ms(1), duration_ns=ms(5))
        b = run_once(ClusterOptions(protocol="neobft-hm", num_clients=3, seed=5),
                     warmup_ns=ms(1), duration_ns=ms(5))
        assert a.latency.mean() != b.latency.mean()

    def test_warmup_excluded_from_window(self):
        result = run_once(ClusterOptions(protocol="unreplicated", num_clients=1, seed=4),
                          warmup_ns=ms(2), duration_ns=ms(5))
        assert result.completions > len(result.latency)  # warmup ops not recorded

    def test_sweep_and_knee(self):
        results = latency_throughput_sweep(
            ClusterOptions(protocol="unreplicated", seed=4),
            client_counts=[1, 8],
            warmup_ns=ms(1),
            duration_ns=ms(4),
        )
        assert len(results) == 2
        assert results[1].throughput_ops > results[0].throughput_ops
        assert max_throughput(results) is results[1]

    def test_custom_op_source(self):
        seen = []

        def next_op():
            seen.append(True)
            return b"fixed-op"

        result = run_once(ClusterOptions(protocol="unreplicated", num_clients=1, seed=4),
                          warmup_ns=0, duration_ns=ms(2), next_op=next_op)
        assert result.completions == len(seen) or result.completions + 1 == len(seen)

    def test_echo_op_generator_size(self):
        import random

        gen = default_echo_op(random.Random(0), size=64)
        assert len(gen()) == 64


class TestParallelSweep:
    SMALL = dict(protocol="neobft-hm", seed=7, num_clients=4)
    WINDOW = dict(warmup_ns=ms(1), duration_ns=ms(3))

    def test_parallel_sweep_equals_serial(self):
        base = ClusterOptions(**self.SMALL)
        serial = run_sweep(base, [1, 4], seeds=[7, 11], workers=1, **self.WINDOW)
        parallel = run_sweep(base, [1, 4], seeds=[7, 11], workers=4, **self.WINDOW)
        assert len(serial) == len(parallel) == 4
        for s, p in zip(serial, parallel):
            assert s == p

    def test_unpicklable_next_op_falls_back_to_serial(self):
        state = {"n": 0}  # closure over local state: not picklable as a task

        def next_op():
            state["n"] += 1
            return b"\x01" * 8

        base = ClusterOptions(**self.SMALL)
        results = run_sweep(base, [1, 2], workers=4, next_op=next_op, **self.WINDOW)
        assert len(results) == 2
        assert state["n"] > 0  # ran in-process
