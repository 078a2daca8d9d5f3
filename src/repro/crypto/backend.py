"""The key authority and the per-node crypto context.

A run never computes a public-key signature. :class:`KeyAuthority` signs
with a 16-byte keyed BLAKE2b tag under a per-identity secret that only it
holds, and :class:`CryptoContext` charges the calibrated secp256k1 ECDSA
(or threshold, or USIG) cost for every sign and verify through the
:class:`~repro.crypto.costmodel.CostModel`. Within the simulation the tag
keeps the security semantics the protocols rely on. A signature is just
its tag, and every check names the signer the verifier trusts:
``verify(signer, data, tag)`` holds only if ``signer`` made ``tag`` over
exactly ``data``, so a signature verifies only for the signer the
verifier names, never for a name the message claims. Byzantine
behaviours in :mod:`repro.faults` manipulate protocol state, never the
key store, so unforgeability holds by construction.
"""

from __future__ import annotations

import hashlib
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.crypto.costmodel import CostModel
from repro.crypto.digests import sha256_digest
from repro.crypto.hmacvec import HmacVector, mac_state, mac_with
from repro.sim.monitor import MetricsRegistry

#: Derives every identity secret (see :meth:`KeyAuthority.register`).
IDENTITY_SEED = b"repro"
#: Bytes in a signature tag.
SIGNATURE_TAG_SIZE = 16


class KeyAuthority:
    """Trust root for a simulation: issues identities and session keys.

    Stands in for the PKI / configuration-service key distribution the
    paper assumes. One authority exists per cluster; every node receives a
    signer bound to its integer identity. It also holds the MAC session
    key of every pair of nodes, derived from ``session_secret`` the way a
    session-establishment handshake would settle them once at startup.
    """

    def __init__(self, session_secret: bytes):
        self._session_secret = session_secret
        self._secrets: Dict[int, bytes] = {}
        self._session_keys: Dict[Tuple[int, int], bytes] = {}

    def register(self, node_id: int) -> None:
        """Create the identity secret of ``node_id`` (idempotent): the first
        16 bytes of SHA-256(IDENTITY_SEED || b"/identity/" || 8-byte id)."""
        if node_id not in self._secrets:
            self._secrets[node_id] = hashlib.sha256(
                IDENTITY_SEED + b"/identity/" + node_id.to_bytes(8, "big")
            ).digest()[:16]

    def verify(self, signer: int, data: bytes, tag: bytes) -> bool:
        """Check that ``tag`` is ``signer``'s signature on ``data``; an
        unregistered ``signer`` fails."""
        secret = self._secrets.get(signer)
        return secret is not None and tag == _tag(secret, data)

    def sign_as(self, node_id: int, data: bytes) -> bytes:
        """Sign on behalf of ``node_id``: the 16-byte tag.

        Only :class:`CryptoContext` instances bound to ``node_id`` call
        this; the contexts are handed out by the cluster builder, one per
        node, which is what scopes signing capability to the key owner.
        """
        return _tag(self._secrets[node_id], data)

    def session_key(self, node_a: int, node_b: int) -> bytes:
        """The 8-byte MAC key shared by the unordered pair {a, b}.

        Only :class:`CryptoContext` instances bound to ``node_a`` or
        ``node_b`` ask for it.
        """
        pair = (node_a, node_b) if node_a <= node_b else (node_b, node_a)
        key = self._session_keys.get(pair)
        if key is None:
            key = sha256_digest(
                self._session_secret
                + pair[0].to_bytes(4, "big")
                + pair[1].to_bytes(4, "big")
            )[:8]
            self._session_keys[pair] = key
        return key


def _tag(secret: bytes, data: bytes) -> bytes:
    return hashlib.blake2b(data, key=secret, digest_size=SIGNATURE_TAG_SIZE).digest()


class CryptoContext:
    """A node's view of the crypto subsystem, with cost accounting.

    ``charge`` is the owning actor's charge method (or None for contexts
    used outside the simulation, e.g. in unit tests).
    """

    def __init__(
        self,
        node_id: int,
        authority: KeyAuthority,
        cost_model: CostModel,
        charge=None,
    ):
        self.node_id = node_id
        self.authority = authority
        self.cost = cost_model
        self._charge = charge
        # crypto.<op> counts, for authenticator-complexity measurements
        # (Table 1): ops are 'sign', 'verify', 'mac', 'digest', 'share',
        # 'combine'. Until bind(), they go to a registry of their own.
        self.counters = MetricsRegistry().scope("crypto.")
        # peer -> keyed BLAKE2s state of the MAC key shared with it.
        self._mac_states: Dict[int, object] = {}
        authority.register(node_id)

    @property
    def op_counts(self) -> Mapping[str, int]:
        """Read-only view of the registry for benchmarks/scorecard/workloads.py."""
        return MappingProxyType(self.counters.counts)

    def bill(self, amount: int) -> None:
        """Charge arbitrary crypto work (e.g. switch-scheme tag checks)."""
        if self._charge is not None:
            self._charge(amount)

    def bind(self, host) -> "CryptoContext":
        """Charge ``host``'s CPU and count into its simulator's registry
        (done by the cluster builder)."""
        self._charge = host.charge
        self.counters = host.sim.metrics.scope("crypto.", node=host.name)
        return self

    # ------------------------------------------------------------ digests

    def digest(self, data: bytes) -> bytes:
        """SHA-256 with cost accounting."""
        self.counters.add("digest")
        self.bill(self.cost.sha256_ns)
        return sha256_digest(data)

    # --------------------------------------------------------- signatures

    def sign(self, data: bytes) -> bytes:
        """Sign as this node; charges the public-key signing cost."""
        self.counters.add("sign")
        self.bill(self.cost.ecdsa_sign_ns)
        return self.authority.sign_as(self.node_id, data)

    def verify(self, signer: int, data: bytes, tag: bytes) -> bool:
        """Check ``signer``'s signature on ``data``; charges the
        verification cost."""
        self.counters.add("verify")
        self.bill(self.cost.ecdsa_verify_ns)
        return self.authority.verify(signer, data, tag)

    # ----------------------------------------------------- threshold sigs

    def threshold_share(self, data: bytes) -> bytes:
        """Produce this node's threshold-signature share."""
        self.counters.add("share")
        self.bill(self.cost.threshold_share_sign_ns)
        return self.authority.sign_as(self.node_id, b"share/" + data)

    def verify_threshold_share(self, signer: int, data: bytes, share: bytes) -> bool:
        """Verify ``signer``'s share."""
        self.counters.add("verify")
        self.bill(self.cost.threshold_share_verify_ns)
        return self.authority.verify(signer, b"share/" + data, share)

    def combine_threshold(self, data: bytes) -> bytes:
        """Combine verified shares into a quorum certificate signature.

        The combined object is signed under the combiner's identity, so a
        verifier checks it against the leader that collected the shares
        (Byzantine QC forgery by that leader is out of scope for the
        baseline performance comparison — NeoBFT's own safety never
        relies on it).
        """
        self.counters.add("combine")
        self.bill(self.cost.threshold_combine_ns)
        return self.authority.sign_as(self.node_id, b"combined/" + data)

    def verify_threshold_combined(self, signer: int, data: bytes, combined: bytes) -> bool:
        """Verify a quorum-certificate signature ``signer`` combined."""
        self.counters.add("verify")
        self.bill(self.cost.threshold_verify_ns)
        return self.authority.verify(signer, b"combined/" + data, combined)

    # --------------------------------------------------------------- MACs
    #
    # Every node-to-node MAC goes through these four operations, under the
    # session key this node shares with the peer. Each tag made or checked
    # charges one HalfSipHash and counts one ``crypto.mac``.

    def mac_to(self, peer: int, data: bytes) -> bytes:
        """The tag ``peer`` will check on ``data`` from this node
        (``sim_mac`` under the pair's session key)."""
        state = self._mac_states.get(peer)
        if state is None:
            state = self._mac_states[peer] = mac_state(
                self.authority.session_key(self.node_id, peer)
            )
        counts = self.counters.counts
        counts["mac"] = counts.get("mac", 0) + 1
        if self._charge is not None:
            self._charge(self.cost.hmac_ns)
        return mac_with(state, data)

    def mac_vector(self, peers: Iterable[int], data: bytes) -> HmacVector:
        """One tag per peer over ``data``, made in ``peers`` order.

        A tuple ``peers`` becomes the vector's ``ids`` as it is, so every
        vector made over one peer tuple shares it.
        """
        ids = tuple(peers)
        return HmacVector(ids, b"".join([self.mac_to(peer, data) for peer in ids]))

    def verify_mac_from(self, peer: int, data: bytes, tag: bytes) -> bool:
        """Check ``peer``'s tag on ``data``."""
        return self.mac_to(peer, data) == tag

    def verify_vector_from(
        self, peer: int, data: bytes, vector: Optional[HmacVector]
    ) -> bool:
        """Check this node's entry in ``peer``'s vector over ``data``.

        A missing vector, or one with no entry for this node, fails
        without charge.
        """
        if vector is None:
            return False
        try:
            tag = vector.tag_for(self.node_id)
        except KeyError:
            return False
        return self.mac_to(peer, data) == tag

