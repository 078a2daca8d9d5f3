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

import importlib
from dataclasses import field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.apps.statemachine import EchoApp, StateMachine
from repro.crypto.backend import CryptoContext, KeyAuthority
from repro.crypto.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.net.fabric import Fabric
from repro.net.profiles import NetworkProfile
from repro.protocols.base import BaseClient, BaseReplica, ReplicaGroup
from repro.records import record
from repro.sim.clock import ms
from repro.sim.engine import Simulator

if TYPE_CHECKING:
    from repro.aom.config import AomConfigService


@record(frozen=True)
class Family:
    """One row of the builder's table: a protocol's classes, its sizing,
    and its system and fault model.

    The classes are named, not imported, so building one family loads no
    other (and only a sequenced family loads aom and the switch models).
    The builder and the fault registry read the model fields; no code
    outside this table compares protocol names.
    """

    module: str  # package exporting the classes
    replica: str
    client: Optional[str]  # None: the shared BaseClient (sends to the leader)
    batch_size: Optional[int]  # default batch cap; None: the family has no batcher
    replica_factor: int  # n = replica_factor * f + 1; 0 is a single server
    retry_timeout_ns: int  # a client's first retry; client_kwargs may override it
    # Authenticator the aom sequencer stamps: "hm" (HMAC vector) or "pk"
    # (signature), aom's AuthVariant values. None: no in-network ordering.
    sequencer: Optional[str] = None
    byzantine_sequencer: bool = False  # receivers confirm: a lying sequencer is tolerated
    stable_leader: bool = False  # one replica orders a whole view
    # A USIG trusted counter stops equivocation, so MinBFT needs only 2f+1.
    trusted_counter: bool = False


# Batch defaults follow each paper's own batching regime: PBFT/Zyzzyva/
# MinBFT cap modest batches (latency-conscious), HotStuff uses large
# batches to amortize its threshold-crypto cost (the paper notes pushing
# it further trades >10 ms latency for throughput).
FAMILIES: Dict[str, Family] = {
    "neobft-hm": Family(
        "repro.protocols.neobft", "NeoBftReplica", "NeoBftClient", None, 3,
        retry_timeout_ns=ms(5), sequencer="hm",
    ),
    "neobft-pk": Family(
        "repro.protocols.neobft", "NeoBftReplica", "NeoBftClient", None, 3,
        retry_timeout_ns=ms(5), sequencer="pk",
    ),
    "neobft-bn": Family(
        "repro.protocols.neobft", "NeoBftReplica", "NeoBftClient", None, 3,
        retry_timeout_ns=ms(5), sequencer="hm", byzantine_sequencer=True,
    ),
    "pbft": Family(
        "repro.protocols.pbft", "PbftReplica", None, 6, 3,
        retry_timeout_ns=ms(20), stable_leader=True,
    ),
    "zyzzyva": Family(
        "repro.protocols.zyzzyva", "ZyzzyvaReplica", "ZyzzyvaClient", 10, 3,
        retry_timeout_ns=ms(20), stable_leader=True,
    ),
    "hotstuff": Family(
        "repro.protocols.hotstuff", "HotStuffReplica", None, 150, 3,
        retry_timeout_ns=ms(50), stable_leader=True,
    ),
    "minbft": Family(
        "repro.protocols.minbft", "MinBftReplica", None, 10, 2,
        retry_timeout_ns=ms(20), stable_leader=True, trusted_counter=True,
    ),
    "unreplicated": Family(
        "repro.protocols.unreplicated", "UnreplicatedServer", None, None, 0,
        retry_timeout_ns=ms(5),
    ),
}
ALL_PROTOCOLS = tuple(FAMILIES)


def family_of(protocol: str) -> Family:
    """The table row for ``protocol``; rejects an unknown name."""
    family = FAMILIES.get(protocol)
    if family is None:
        raise ValueError(f"unknown protocol {protocol!r}")
    return family


@record
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
    batch_size: Optional[int] = None  # None = per-protocol default
    group_id: int = 1
    replica_kwargs: Dict = field(default_factory=dict)
    client_kwargs: Dict = field(default_factory=dict)
    aom_kwargs: Dict = field(default_factory=dict)

    def resolved_batch(self, protocol_default: int) -> int:
        """Batch cap: explicit option wins, else the protocol's default."""
        return self.batch_size if self.batch_size is not None else protocol_default

    def resolved_replicas(self) -> int:
        """Replica count: explicit option wins, else the family's minimum."""
        if self.num_replicas is not None:
            return self.num_replicas
        return family_of(self.protocol).replica_factor * self.f + 1


@record
class Cluster:
    """A fully wired system under test."""

    options: ClusterOptions
    sim: Simulator
    fabric: Fabric
    authority: KeyAuthority
    group: ReplicaGroup
    replicas: List[BaseReplica]
    clients: List[BaseClient]
    config_service: Optional["AomConfigService"] = None

    def replica_by_id(self, replica_id: int) -> BaseReplica:
        """The replica with logical id ``replica_id``."""
        return self.replicas[replica_id]


def build_cluster(options: ClusterOptions) -> Cluster:
    """Assemble a system for ``options.protocol``.

    Attach order fixes every address: replicas 0..n-1, then NeoBFT's aom
    configuration service, then the clients. Each node gets a crypto
    context bound to its address, CPU and counters. ``replica_kwargs``
    may name ``silent_replicas``: replica ids muted from the start with
    :func:`repro.faults.behaviors.make_silent` (Zyzzyva-F in Figure 7).
    """
    family = family_of(options.protocol)
    module = importlib.import_module(family.module)
    replica_cls = getattr(module, family.replica)
    client_cls = getattr(module, family.client) if family.client else BaseClient
    sim = Simulator(seed=options.seed)
    fabric = Fabric(sim, options.profile)
    authority = KeyAuthority(b"cluster-bootstrap/%d" % options.seed)
    n = options.resolved_replicas()
    # An unreplicated server tolerates no fault.
    group = ReplicaGroup(tuple(range(n)), options.f if family.replica_factor else 0)
    group.validate(family.replica_factor)

    replica_kwargs = dict(options.replica_kwargs)
    silent = replica_kwargs.pop("silent_replicas", ())
    if family.batch_size is not None:
        replica_kwargs["batch_size"] = options.resolved_batch(family.batch_size)
    replicas = []
    for rid in range(n):
        replica = replica_cls(
            sim, rid, group, options.app_factory(),
            cost_model=options.cost_model, **replica_kwargs,
        )
        replica.attach(fabric, rid)
        replica.crypto = _bind_crypto(replica, authority, options.cost_model)
        if family.trusted_counter:
            replica.init_usig()
        replicas.append(replica)
    if silent:
        from repro.faults.behaviors import make_silent

        for rid in silent:
            make_silent(replicas[rid])

    service = None
    if family.sequencer is not None:
        service = _wire_aom_receivers(options, family, sim, fabric, authority, replicas)

    client_kwargs = {"retry_timeout_ns": family.retry_timeout_ns, **options.client_kwargs}
    clients = []
    for i in range(options.num_clients):
        client = client_cls(
            sim, f"client-{i}", group, proto=replica_cls.PROTO,
            cost_model=options.cost_model, **client_kwargs,
        )
        client.attach(fabric)
        client.crypto = _bind_crypto(client, authority, options.cost_model)
        if service is not None:
            from repro.aom.sender import AomSenderLib

            client.install_aom(AomSenderLib(client, options.group_id, client.crypto))
        clients.append(client)

    return Cluster(
        options=options, sim=sim, fabric=fabric, authority=authority, group=group,
        replicas=replicas, clients=clients, config_service=service,
    )


def _bind_crypto(endpoint, authority, cost_model) -> CryptoContext:
    """A crypto context for an attached endpoint's identity, CPU and counters."""
    return CryptoContext(endpoint.address, authority, cost_model).bind(endpoint)


def _wire_aom_receivers(options, family, sim, fabric, authority, replicas) -> "AomConfigService":
    """Attach the aom configuration service and give each replica its
    receiver library in one group, as the family row says: the
    sequencer's authenticator, and confirms under a Byzantine network."""
    from repro.aom.config import AomConfigService
    from repro.aom.messages import AomConfig, AuthVariant, NetworkFaultModel
    from repro.aom.receiver import AomReceiverLib
    from repro.protocols.messages import ClientRequest

    fault_model = (
        NetworkFaultModel.BYZANTINE if family.byzantine_sequencer else NetworkFaultModel.CRASH
    )
    aom_config = AomConfig(
        group_id=options.group_id,
        variant=AuthVariant(family.sequencer),
        network_fault_model=fault_model,
        confirm_fault_bound=options.f,
    )
    service = AomConfigService(
        sim,
        fabric,
        authority,
        cost_model=options.cost_model,
        failover_threshold_f=options.f,
        **options.aom_kwargs,
    )
    service.attach(fabric)
    for replica in replicas:
        replica.group_id = options.group_id
        replica.config_service_addr = service.address
        lib = AomReceiverLib(
            host=replica,
            config=aom_config,
            crypto=replica.crypto,
            deliver=replica.on_aom_deliver,
            deliver_drop=replica.on_aom_drop,
            on_stuck=replica.on_sequencer_stuck,
            payload_binding=lambda p: p.canonical() if isinstance(p, ClientRequest) else None,
        )
        replica.install_aom(lib)
        service.register_receiver_lib(options.group_id, replica.address, lib)
    service.create_group(aom_config, [r.address for r in replicas])
    return service
