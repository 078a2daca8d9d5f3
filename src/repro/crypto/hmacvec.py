"""HMAC vectors: per-receiver message authentication codes.

Two consumers:

- the aom-hm sequencer switch writes a vector of HalfSipHash tags, one per
  receiver, into the aom header (§4.3) — transferable because the *whole*
  vector travels with the message, so any receiver can forward the message
  and the recipient checks its own entry;
- PBFT-style baselines authenticate replica-to-replica messages with MAC
  vectors over pairwise session keys (the classic O(N^2) authenticator
  pattern Table 1 charges them for).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.crypto.siphash import halfsiphash24

HMAC_TAG_SIZE = 4


def compute_hmac(key: bytes, data: bytes) -> bytes:
    """One HalfSipHash-2-4 tag (4 bytes) as used by the switch."""
    return halfsiphash24(key, data)


def sim_mac(key: bytes, data: bytes) -> bytes:
    """A 4-byte keyed BLAKE2s tag, computed in C.

    The simulation's MAC for replica and client messages and for the
    switch's HMAC vectors. All the protocols need is that a tag
    verifies if and only if it was made with that key over those bytes;
    the simulated cost of a HalfSipHash is charged separately by the
    cost model.
    """
    return hashlib.blake2s(data, key=key, digest_size=HMAC_TAG_SIZE).digest()


@dataclass(frozen=True)
class HmacVector:
    """An ordered vector of (receiver_id, tag) pairs over one input."""

    tags: Tuple[Tuple[int, bytes], ...]

    def tag_for(self, receiver_id: int) -> bytes:
        """The tag computed under ``receiver_id``'s key."""
        for rid, tag in self.tags:
            if rid == receiver_id:
                return tag
        raise KeyError(f"no HMAC entry for receiver {receiver_id}")

    def has_entry(self, receiver_id: int) -> bool:
        """Whether the vector covers ``receiver_id``."""
        for rid, _ in self.tags:
            if rid == receiver_id:
                return True
        return False

    def receivers(self) -> List[int]:
        """Receiver ids covered, in vector order."""
        return [rid for rid, _ in self.tags]

    def wire_size(self) -> int:
        """Bytes this vector occupies in a packet header."""
        return len(self.tags) * (2 + HMAC_TAG_SIZE)

    def merge(self, other: "HmacVector") -> "HmacVector":
        """Combine two partial vectors (subgroup packets reassembling §4.3)."""
        seen = dict(self.tags)
        merged = list(self.tags)
        for rid, tag in other.tags:
            if rid not in seen:
                merged.append((rid, tag))
        return HmacVector(tuple(merged))


def make_hmac_vector(keys: Sequence[Tuple[int, bytes]], data: bytes) -> HmacVector:
    """Compute a full vector: one tag per (receiver_id, key) pair."""
    return HmacVector(tuple((rid, compute_hmac(key, data)) for rid, key in keys))


def verify_hmac_entry(vector: HmacVector, receiver_id: int, key: bytes, data: bytes) -> bool:
    """Receiver-side check: recompute my tag and compare."""
    if not vector.has_entry(receiver_id):
        return False
    return vector.tag_for(receiver_id) == compute_hmac(key, data)


class PairwiseKeys:
    """Session keys between every pair of nodes (PBFT MAC authenticators).

    Key for (a, b) equals key for (b, a); derivation is deterministic from a
    shared bootstrap secret, standing in for the session-establishment
    handshake real deployments run once at startup.
    """

    def __init__(self, bootstrap_secret: bytes):
        self._secret = bootstrap_secret
        self._cache: Dict[Tuple[int, int], bytes] = {}

    def key_between(self, node_a: int, node_b: int) -> bytes:
        """The 8-byte MAC key shared by the unordered pair {a, b}."""
        pair = (node_a, node_b) if node_a <= node_b else (node_b, node_a)
        key = self._cache.get(pair)
        if key is None:
            from repro.crypto.digests import sha256_digest

            material = sha256_digest(
                self._secret + pair[0].to_bytes(4, "big") + pair[1].to_bytes(4, "big")
            )
            key = material[:8]
            self._cache[pair] = key
        return key

    def authenticate(self, sender: int, receivers: Sequence[int], data: bytes) -> HmacVector:
        """MAC vector from ``sender`` to each receiver (O(N) tags)."""
        return HmacVector(
            tuple(
                (rid, compute_hmac(self.key_between(sender, rid), data))
                for rid in receivers
            )
        )

    def verify(self, sender: int, receiver: int, data: bytes, vector: HmacVector) -> bool:
        """Receiver-side verification of a MAC-vector entry."""
        return verify_hmac_entry(
            vector, receiver, self.key_between(sender, receiver), data
        )
