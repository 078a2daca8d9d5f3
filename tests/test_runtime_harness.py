"""Tests for the cluster builder and measurement harness."""

import os
import subprocess
import sys
from dataclasses import replace

import pytest

import repro
from repro.aom.messages import Confirm, ConfirmBatch
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.runtime.cluster import ALL_PROTOCOLS, family_of
from repro.runtime.harness import (
    default_echo_op,
    run_once,
    run_sweep,
)
from repro.sim.clock import ms
from repro.telemetry import Telemetry


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


#: Each family's built client: class, first retry, reply quorum at f=1,
#: and the ``proto`` label on its request-latency histogram.
BUILT_CLIENTS = {
    "neobft-hm": ("NeoBftClient", ms(5), 3, "neobft"),
    "neobft-pk": ("NeoBftClient", ms(5), 3, "neobft"),
    "neobft-bn": ("NeoBftClient", ms(5), 3, "neobft"),
    "pbft": ("BaseClient", ms(20), 2, "pbft"),
    "zyzzyva": ("ZyzzyvaClient", ms(20), 4, "zyzzyva"),
    "hotstuff": ("BaseClient", ms(50), 2, "hotstuff"),
    "minbft": ("BaseClient", ms(20), 2, "minbft"),
    "unreplicated": ("BaseClient", ms(5), 1, "unreplicated"),
}


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_built_client(protocol):
    name, retry_timeout_ns, reply_quorum, proto = BUILT_CLIENTS[protocol]
    cluster = build_cluster(ClusterOptions(protocol=protocol, num_clients=1, seed=3))
    result = Measurement(cluster, ms(1), ms(3), telemetry=Telemetry()).run()
    client = cluster.clients[0]
    assert type(client).__name__ == name
    assert (client.retry_timeout_ns, client.reply_quorum) == (retry_timeout_ns, reply_quorum)
    assert result.metrics.histogram_summary("client.request_latency_ns", proto=proto)


def test_client_kwargs_override_the_row_retry_timeout():
    options = ClusterOptions(protocol="pbft", client_kwargs={"retry_timeout_ns": ms(1)})
    assert build_cluster(options).clients[0].retry_timeout_ns == ms(1)


class TestBuildCluster:
    def test_replica_addresses_are_dense(self):
        cluster = build_cluster(ClusterOptions(protocol="neobft-hm"))
        assert [r.address for r in cluster.replicas] == [0, 1, 2, 3]

    def test_every_protocol_builds(self):
        for protocol in ALL_PROTOCOLS:
            cluster = build_cluster(ClusterOptions(protocol=protocol, num_clients=1))
            assert cluster.clients, protocol

    @pytest.mark.parametrize(
        "protocol", [p for p in ALL_PROTOCOLS if family_of(p).replica_factor]
    )
    def test_too_few_replicas_rejected(self, protocol):
        # n = factor * f is one short of the family's n = factor * f + 1.
        short = family_of(protocol).replica_factor * 2
        with pytest.raises(ValueError, match="cannot tolerate f=2"):
            build_cluster(ClusterOptions(protocol=protocol, f=2, num_replicas=short))

    def test_neobft_group_registered(self):
        cluster = build_cluster(ClusterOptions(protocol="neobft-hm"))
        assert cluster.config_service.sequencer_for(1) is not None
        for replica in cluster.replicas:
            assert replica.aom_lib.epoch == 1

    def test_bn_mode_gets_pairwise_confirms(self):
        cluster = build_cluster(ClusterOptions(protocol="neobft-bn", num_clients=2))
        heard = {replica.address: set() for replica in cluster.replicas}
        for replica in cluster.replicas:
            def note(src, message, _heard=heard[replica.address]):
                if isinstance(message, ConfirmBatch):
                    _heard.add(src)
                return message

            replica.add_receive_interposer(note)
        run = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(2)).run()
        # Every replica sends confirms to every other; delivery needs a
        # 2f+1 confirm quorum, so completions show the peers' tags verified.
        assert run.completions > 0
        for replica in cluster.replicas:
            assert heard[replica.address] == set(replica.peers())

        # A peer's confirm counts only if my entry in its vector verifies.
        lib, peer = cluster.replicas[0].aom_lib, cluster.replicas[1]
        sequence = lib.next_seq + 100  # far ahead: recorded, never delivered
        body = Confirm(1, lib.epoch, sequence, b"d" * 32, peer.address, None)
        receivers = [0, 2, 3]
        good = replace(body, auth=peer.crypto.mac_vector(receivers, body.signed_body()))
        forged = replace(body, digest=b"e" * 32, auth=good.auth)
        for confirm in (forged, good):
            lib.on_confirm(confirm, peer.address)
        assert set(lib._confirms[sequence]) == {b"d" * 32}


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
        results = run_sweep(
            ClusterOptions(protocol="unreplicated", seed=4),
            client_counts=[1, 8],
            warmup_ns=ms(1),
            duration_ns=ms(4),
        )
        assert len(results) == 2
        assert results[1].throughput_ops > results[0].throughput_ops

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

    def test_serial_import_leaves_the_process_pool_unloaded(self):
        # Only a sweep that starts a pool pays for concurrent.futures and
        # multiprocessing; importing the runtime and faults layers does not.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import sys, repro.runtime, repro.faults; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"


FAMILIES = ("neobft", "pbft", "zyzzyva", "hotstuff", "minbft", "unreplicated")


def modules_loaded_by(statement):
    """``repro`` modules a fresh interpreter holds after ``statement``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    probe = (
        f"import sys; {statement}; "
        "print(' '.join(m for m in sys.modules if m.startswith('repro.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(out.stdout.split())


def aom_or_switch_modules(loaded):
    """The aom and switch-model modules among ``loaded``."""
    return {m for m in loaded if m.split(".")[1] in ("aom", "switchfab")}


class TestLazyImports:
    def test_faults_load_no_protocol_family(self):
        loaded = modules_loaded_by("import repro.faults")
        assert "repro.protocols.adversary" in loaded
        assert not {f"repro.protocols.{family}" for family in FAMILIES} & loaded

    def test_pbft_build_loads_only_its_own_family(self):
        loaded = modules_loaded_by(
            "from repro.runtime import ClusterOptions, build_cluster; "
            "build_cluster(ClusterOptions(protocol='pbft'))"
        )
        assert "repro.protocols.pbft" in loaded
        others = {f"repro.protocols.{family}" for family in FAMILIES if family != "pbft"}
        assert not others & loaded
        assert not aom_or_switch_modules(loaded)

    def test_faults_load_no_aom_or_switch_model(self):
        assert not aom_or_switch_modules(modules_loaded_by("import repro.faults"))

    def test_silent_replica_build_loads_no_aom_or_switch_model(self):
        # The builder reaches repro.faults for silent_replicas on any family.
        loaded = modules_loaded_by(
            "from repro.runtime import ClusterOptions, build_cluster; "
            "build_cluster(ClusterOptions(protocol='zyzzyva', "
            "replica_kwargs={'silent_replicas': [2]}))"
        )
        assert "repro.faults.behaviors" in loaded
        assert not aom_or_switch_modules(loaded)

    def test_monitored_neobft_build_loads_no_fuzzer_store_or_ycsb(self):
        # What a fig7 or chaos execution imports: a NeoBFT build and the
        # fault package for its campaign and invariant monitor.
        loaded = modules_loaded_by(
            "import repro.faults; "
            "from repro.runtime import ClusterOptions, build_cluster; "
            "build_cluster(ClusterOptions(protocol='neobft-hm'))"
        )
        assert {"repro.faults.campaign", "repro.faults.invariants"} <= loaded
        assert "repro.apps.statemachine" in loaded
        assert not {"repro.faults.fuzz", "repro.apps.kvstore", "repro.apps.ycsb"} & loaded

    def test_lazy_exports_resolve_on_access(self):
        import repro.apps
        import repro.faults
        from repro.apps import KeyValueApp, YcsbWorkload
        from repro.apps.kvstore.store import KeyValueApp as StoreApp
        from repro.faults import FuzzBudget, run_case
        from repro.faults.fuzz import run_case as fuzz_run_case

        assert KeyValueApp is StoreApp and YcsbWorkload.__module__ == "repro.apps.ycsb"
        assert run_case is fuzz_run_case and FuzzBudget.__module__ == "repro.faults.fuzz"
        for package in (repro.apps, repro.faults):
            assert all(hasattr(package, name) for name in package.__all__)
            with pytest.raises(AttributeError):
                package.no_such_name
