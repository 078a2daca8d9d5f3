"""Signature backends and the per-node crypto context.

Two interchangeable backends sit behind one interface:

- :class:`RealBackend` signs with the from-scratch secp256k1 ECDSA in
  :mod:`repro.crypto.ecdsa`. Used by the crypto test suite and available
  for (slow) end-to-end runs.
- :class:`FastBackend` produces simulation-grade signatures: a keyed
  BLAKE2b tag under a per-identity secret held *only* by the
  :class:`KeyAuthority`.
  Within the simulation it preserves the security semantics that matter to
  the protocols — a signature verifies if and only if it was produced by
  the claimed signer's own ``sign`` call over exactly those bytes — while
  being ~10^4x cheaper in wall-clock time. Byzantine behaviours in
  :mod:`repro.faults` manipulate protocol state, never the key store, so
  unforgeability is preserved by construction.

Either way, nodes go through a :class:`CryptoContext`, which charges the
calibrated simulated CPU cost for every operation. Simulated time is
therefore identical under both backends.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.crypto.costmodel import CostModel
from repro.crypto.digests import sha256_digest
from repro.crypto.ecdsa import PrivateKey, PublicKey
from repro.crypto.hmacvec import sim_mac


@dataclass(frozen=True)
class Signature:
    """A signature attributable to ``signer_id`` over some bytes."""

    signer_id: int
    payload: bytes
    scheme: str

    def wire_size(self) -> int:
        """Bytes on the wire (64 for ECDSA r||s, 16 for fast tags)."""
        return len(self.payload)


class KeyAuthority:
    """Trust root for a simulation: issues and verifies identities.

    Stands in for the PKI / configuration-service key distribution the
    paper assumes. One authority exists per cluster; every node receives a
    signer bound to its integer identity.
    """

    def __init__(self, backend: "SignatureBackend"):
        self.backend = backend

    def register(self, node_id: int) -> None:
        """Create key material for a node identity (idempotent)."""
        self.backend.register(node_id)

    def verify(self, signature: Signature, data: bytes) -> bool:
        """Check that ``signature`` is valid for ``data``."""
        return self.backend.verify(signature, data)

    def sign_as(self, node_id: int, data: bytes) -> Signature:
        """Sign on behalf of ``node_id``.

        Only :class:`CryptoContext` instances bound to ``node_id`` call
        this; the contexts are handed out by the cluster builder, one per
        node, which is what scopes signing capability to the key owner.
        """
        return self.backend.sign(node_id, data)


class SignatureBackend:
    """Interface both backends implement."""

    name = "abstract"

    def register(self, node_id: int) -> None:
        raise NotImplementedError

    def sign(self, node_id: int, data: bytes) -> Signature:
        raise NotImplementedError

    def verify(self, signature: Signature, data: bytes) -> bool:
        raise NotImplementedError


class RealBackend(SignatureBackend):
    """secp256k1 ECDSA over SHA-256 digests."""

    name = "real"

    def __init__(self, seed: bytes = b"repro"):
        self._seed = seed
        self._private: Dict[int, PrivateKey] = {}
        self._public: Dict[int, PublicKey] = {}

    def register(self, node_id: int) -> None:
        if node_id in self._private:
            return
        key = PrivateKey.from_seed(self._seed + node_id.to_bytes(8, "big"))
        self._private[node_id] = key
        self._public[node_id] = key.public_key()

    def public_key(self, node_id: int) -> PublicKey:
        """The registered public key for ``node_id``."""
        return self._public[node_id]

    def sign(self, node_id: int, data: bytes) -> Signature:
        digest = sha256_digest(data)
        r, s = self._private[node_id].sign(digest)
        return Signature(node_id, r.to_bytes(32, "big") + s.to_bytes(32, "big"), self.name)

    def verify(self, signature: Signature, data: bytes) -> bool:
        public = self._public.get(signature.signer_id)
        if public is None or signature.scheme != self.name or len(signature.payload) != 64:
            return False
        r = int.from_bytes(signature.payload[:32], "big")
        s = int.from_bytes(signature.payload[32:], "big")
        return public.verify(sha256_digest(data), (r, s))


class FastBackend(SignatureBackend):
    """Simulation-grade signatures: BLAKE2b tags under authority-held secrets."""

    name = "fast"

    TAG_SIZE = 16

    def __init__(self, seed: bytes = b"repro"):
        self._seed = seed
        self._secrets: Dict[int, bytes] = {}

    def register(self, node_id: int) -> None:
        if node_id not in self._secrets:
            self._secrets[node_id] = hashlib.sha256(
                self._seed + b"/identity/" + node_id.to_bytes(8, "big")
            ).digest()[:16]

    @staticmethod
    def _tag(secret: bytes, data: bytes) -> bytes:
        return hashlib.blake2b(data, key=secret, digest_size=FastBackend.TAG_SIZE).digest()

    def sign(self, node_id: int, data: bytes) -> Signature:
        return Signature(node_id, self._tag(self._secrets[node_id], data), self.name)

    def verify(self, signature: Signature, data: bytes) -> bool:
        secret = self._secrets.get(signature.signer_id)
        if secret is None or signature.scheme != self.name:
            return False
        return signature.payload == self._tag(secret, data)


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
        # Operation counts, for authenticator-complexity measurements
        # (Table 1): keys are 'sign', 'verify', 'mac', 'digest', 'share',
        # 'combine'.
        self.op_counts: Dict[str, int] = {}
        authority.register(node_id)

    def _count(self, op: str) -> None:
        self.op_counts[op] = self.op_counts.get(op, 0) + 1

    def _bill(self, amount: int) -> None:
        if self._charge is not None:
            self._charge(amount)

    def bill(self, amount: int) -> None:
        """Charge arbitrary crypto work (e.g. switch-scheme tag checks)."""
        self._bill(amount)

    def bind(self, charge) -> "CryptoContext":
        """Attach an actor's charge function (done by the cluster builder)."""
        self._charge = charge
        return self

    # ------------------------------------------------------------ digests

    def digest(self, data: bytes) -> bytes:
        """SHA-256 with cost accounting."""
        self._count("digest")
        self._bill(self.cost.sha256_ns)
        return sha256_digest(data)

    # --------------------------------------------------------- signatures

    def sign(self, data: bytes) -> Signature:
        """Sign as this node; charges the public-key signing cost."""
        self._count("sign")
        self._bill(self.cost.ecdsa_sign_ns)
        return self.authority.sign_as(self.node_id, data)

    def verify(self, signature: Signature, data: bytes) -> bool:
        """Verify any node's signature; charges the verification cost."""
        self._count("verify")
        self._bill(self.cost.ecdsa_verify_ns)
        return self.authority.verify(signature, data)

    # ----------------------------------------------------- threshold sigs

    def threshold_share(self, data: bytes) -> Signature:
        """Produce this node's threshold-signature share."""
        self._count("share")
        self._bill(self.cost.threshold_share_sign_ns)
        return self.authority.sign_as(self.node_id, b"share/" + data)

    def verify_threshold_share(self, share: Signature, data: bytes) -> bool:
        """Verify another node's share."""
        self._count("verify")
        self._bill(self.cost.threshold_share_verify_ns)
        return self.authority.verify(share, b"share/" + data)

    def combine_threshold(self, data: bytes) -> Signature:
        """Combine verified shares into a quorum certificate signature.

        The combined object is signed under the combiner's identity; in
        the simulation only the leader that actually collected shares
        calls this (Byzantine QC forgery is out of scope for the baseline
        performance comparison — NeoBFT's own safety never relies on it).
        """
        self._count("combine")
        self._bill(self.cost.threshold_combine_ns)
        return self.authority.sign_as(self.node_id, b"combined/" + data)

    def verify_threshold_combined(self, combined: Signature, data: bytes) -> bool:
        """Verify a combined quorum-certificate signature."""
        self._count("verify")
        self._bill(self.cost.threshold_verify_ns)
        return self.authority.verify(combined, b"combined/" + data)

    # --------------------------------------------------------------- MACs

    def mac(self, key: bytes, data: bytes) -> bytes:
        """Symmetric MAC tag with cost accounting."""
        self._count("mac")
        self._bill(self.cost.hmac_ns)
        return sim_mac(key, data)

    def verify_mac(self, key: bytes, data: bytes, tag: bytes) -> bool:
        """Verify a MAC tag with cost accounting."""
        return self.mac(key, data) == tag


def make_authority(backend_name: str = "fast", seed: bytes = b"repro") -> KeyAuthority:
    """Build a key authority for the requested backend (``fast``/``real``)."""
    if backend_name == "fast":
        return KeyAuthority(FastBackend(seed))
    if backend_name == "real":
        return KeyAuthority(RealBackend(seed))
    raise ValueError(f"unknown crypto backend {backend_name!r}")
