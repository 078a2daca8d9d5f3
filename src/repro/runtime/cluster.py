"""Cluster construction for every protocol under test.

Protocol names accepted by :func:`build_cluster`:

- ``neobft-hm``   NeoBFT over aom-hm (hybrid fault model)
- ``neobft-pk``   NeoBFT over aom-pk
- ``neobft-bn``   NeoBFT over aom-hm tolerating a Byzantine network
- ``pbft``        PBFT with batching and MAC authenticators
- ``zyzzyva``     speculative BFT (fast path 3f+1)
- ``hotstuff``    3-phase HotStuff with threshold signatures
- ``minbft``      MinBFT on USIG trusted counters (2f+1 replicas)
- ``unreplicated``  single server
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.aom.config import AomConfigService
from repro.aom.messages import AomConfig, AuthVariant, NetworkFaultModel
from repro.aom.receiver import AomReceiverLib
from repro.aom.sender import AomSenderLib
from repro.apps.statemachine import EchoApp, StateMachine
from repro.crypto.backend import CryptoContext, KeyAuthority, make_authority
from repro.crypto.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.crypto.hmacvec import PairwiseKeys
from repro.net.fabric import Fabric
from repro.net.profiles import NetworkProfile
from repro.protocols.base import BaseClient, BaseReplica, ReplicaGroup
from repro.sim.engine import Simulator
from repro.switchfab.hmac_pipeline import TagScheme

NEOBFT_PROTOCOLS = ("neobft-hm", "neobft-pk", "neobft-bn")
ALL_PROTOCOLS = NEOBFT_PROTOCOLS + (
    "pbft",
    "zyzzyva",
    "hotstuff",
    "minbft",
    "unreplicated",
)


@dataclass
class ClusterOptions:
    """Everything needed to assemble one system under test."""

    protocol: str = "neobft-hm"
    f: int = 1
    num_replicas: Optional[int] = None  # default: minimum for the protocol
    num_clients: int = 4
    app_factory: Callable[[], StateMachine] = EchoApp
    seed: int = 1
    profile: Optional[NetworkProfile] = None
    cost_model: CostModel = DEFAULT_COST_MODEL
    crypto_backend: str = "fast"
    tag_scheme: str = "fast"
    batch_size: Optional[int] = None  # None = per-protocol default
    group_id: int = 1
    replica_kwargs: Dict = field(default_factory=dict)
    client_kwargs: Dict = field(default_factory=dict)
    aom_kwargs: Dict = field(default_factory=dict)

    def resolved_batch(self, protocol_default: int) -> int:
        """Batch cap: explicit option wins, else the protocol's default.

        Defaults follow each paper's own batching regime: PBFT/Zyzzyva/
        MinBFT cap modest batches (latency-conscious), HotStuff uses large
        batches to amortize its threshold-crypto cost (the paper notes
        pushing it further trades >10 ms latency for throughput).
        """
        return self.batch_size if self.batch_size is not None else protocol_default

    def resolved_replicas(self) -> int:
        if self.num_replicas is not None:
            return self.num_replicas
        if self.protocol == "minbft":
            return 2 * self.f + 1
        if self.protocol == "unreplicated":
            return 1
        return 3 * self.f + 1


@dataclass
class Cluster:
    """A fully wired system under test."""

    options: ClusterOptions
    sim: Simulator
    fabric: Fabric
    authority: KeyAuthority
    pairwise: PairwiseKeys
    group: ReplicaGroup
    replicas: List[BaseReplica]
    clients: List[BaseClient]
    config_service: Optional[AomConfigService] = None

    def replica_by_id(self, replica_id: int) -> BaseReplica:
        """The replica with logical id ``replica_id``."""
        return self.replicas[replica_id]

    def context_for(self, endpoint) -> CryptoContext:
        """A crypto context bound to an endpoint's identity and CPU."""
        return CryptoContext(
            endpoint.address, self.authority, self.options.cost_model, endpoint.charge
        )


def build_cluster(options: ClusterOptions) -> Cluster:
    """Assemble a system for ``options.protocol``."""
    if options.protocol not in ALL_PROTOCOLS:
        raise ValueError(f"unknown protocol {options.protocol!r}")
    sim = Simulator(seed=options.seed)
    fabric = Fabric(sim, options.profile)
    authority = make_authority(options.crypto_backend)
    pairwise = PairwiseKeys(b"cluster-bootstrap/%d" % options.seed)
    n = options.resolved_replicas()

    # Replica addresses are 0..n-1 (attached first, in order).
    builder = _PROTOCOL_BUILDERS[options.protocol]
    cluster = builder(options, sim, fabric, authority, pairwise, n)
    for client in cluster.clients:
        client.on_complete = None  # harness installs measurement hooks
    return cluster


def _make_group(n: int, f: int) -> ReplicaGroup:
    return ReplicaGroup(replica_addrs=tuple(range(n)), f=f)


def _bind_crypto(endpoint, authority, cost_model) -> CryptoContext:
    return CryptoContext(endpoint.address, authority, cost_model, endpoint.charge)


# ---------------------------------------------------------------------------
# NeoBFT family
# ---------------------------------------------------------------------------


def _build_neobft(options, sim, fabric, authority, pairwise, n) -> Cluster:
    from repro.protocols.neobft import NeoBftClient, NeoBftReplica

    variant = AuthVariant.PUBKEY if options.protocol == "neobft-pk" else AuthVariant.HMAC
    fault_model = (
        NetworkFaultModel.BYZANTINE
        if options.protocol == "neobft-bn"
        else NetworkFaultModel.CRASH
    )
    group = _make_group(n, options.f)
    aom_config = AomConfig(
        group_id=options.group_id,
        variant=variant,
        network_fault_model=fault_model,
        confirm_fault_bound=options.f,
    )

    replicas: List[NeoBftReplica] = []
    for rid in range(n):
        replica = NeoBftReplica(
            sim,
            rid,
            group,
            options.app_factory(),
            crypto=None,  # bound after attach (identity = address)
            pairwise=pairwise,
            group_id=options.group_id,
            cost_model=options.cost_model,
            **options.replica_kwargs,
        )
        replica.attach(fabric, rid)
        replica.crypto = _bind_crypto(replica, authority, options.cost_model)
        replicas.append(replica)

    service = AomConfigService(
        sim,
        fabric,
        authority,
        cost_model=options.cost_model,
        failover_threshold_f=options.f,
        tag_scheme=TagScheme(options.tag_scheme),
        **options.aom_kwargs,
    )
    service.attach(fabric)
    for replica in replicas:
        replica.config_service_addr = service.address
        from repro.protocols.messages import ClientRequest

        lib = AomReceiverLib(
            host=replica,
            config=aom_config,
            crypto=replica.crypto,
            deliver=replica.on_aom_deliver,
            deliver_drop=replica.on_aom_drop,
            pairwise=pairwise if fault_model == NetworkFaultModel.BYZANTINE else None,
            on_stuck=replica.on_sequencer_stuck,
            payload_binding=lambda p: p.canonical() if isinstance(p, ClientRequest) else None,
        )
        replica.install_aom(lib)
        service.register_receiver_lib(options.group_id, replica.address, lib)
    service.create_group(aom_config, [r.address for r in replicas])

    clients: List[NeoBftClient] = []
    for i in range(options.num_clients):
        client = NeoBftClient(
            sim, f"client-{i}", group, crypto=None, pairwise=pairwise,
            cost_model=options.cost_model, **options.client_kwargs,
        )
        client.attach(fabric)
        client.crypto = _bind_crypto(client, authority, options.cost_model)
        client.install_aom(
            AomSenderLib(client, options.group_id, client.crypto)
        )
        clients.append(client)

    return Cluster(
        options=options,
        sim=sim,
        fabric=fabric,
        authority=authority,
        pairwise=pairwise,
        group=group,
        replicas=replicas,
        clients=clients,
        config_service=service,
    )


# ---------------------------------------------------------------------------
# Unreplicated
# ---------------------------------------------------------------------------


def _build_unreplicated(options, sim, fabric, authority, pairwise, n) -> Cluster:
    from repro.protocols.unreplicated import UnreplicatedClient, UnreplicatedServer

    group = ReplicaGroup(replica_addrs=(0,), f=0)
    server = UnreplicatedServer(
        sim, group, options.app_factory(), crypto=None, pairwise=pairwise,
        cost_model=options.cost_model,
    )
    server.attach(fabric, 0)
    server.crypto = _bind_crypto(server, authority, options.cost_model)

    clients = []
    for i in range(options.num_clients):
        client = UnreplicatedClient(
            sim, f"client-{i}", group, crypto=None, pairwise=pairwise,
            cost_model=options.cost_model, **options.client_kwargs,
        )
        client.attach(fabric)
        client.crypto = _bind_crypto(client, authority, options.cost_model)
        clients.append(client)

    return Cluster(
        options=options, sim=sim, fabric=fabric, authority=authority,
        pairwise=pairwise, group=group, replicas=[server], clients=clients,
    )


# ---------------------------------------------------------------------------
# Leader-based baselines (wired in their own modules)
# ---------------------------------------------------------------------------


def _build_pbft(options, sim, fabric, authority, pairwise, n) -> Cluster:
    from repro.protocols.pbft.build import build as build_pbft

    return build_pbft(options, sim, fabric, authority, pairwise, n)


def _build_zyzzyva(options, sim, fabric, authority, pairwise, n) -> Cluster:
    from repro.protocols.zyzzyva.build import build as build_zyzzyva

    return build_zyzzyva(options, sim, fabric, authority, pairwise, n)


def _build_hotstuff(options, sim, fabric, authority, pairwise, n) -> Cluster:
    from repro.protocols.hotstuff.build import build as build_hotstuff

    return build_hotstuff(options, sim, fabric, authority, pairwise, n)


def _build_minbft(options, sim, fabric, authority, pairwise, n) -> Cluster:
    from repro.protocols.minbft.build import build as build_minbft

    return build_minbft(options, sim, fabric, authority, pairwise, n)


_PROTOCOL_BUILDERS = {
    "neobft-hm": _build_neobft,
    "neobft-pk": _build_neobft,
    "neobft-bn": _build_neobft,
    "pbft": _build_pbft,
    "zyzzyva": _build_zyzzyva,
    "hotstuff": _build_hotstuff,
    "minbft": _build_minbft,
    "unreplicated": _build_unreplicated,
}
