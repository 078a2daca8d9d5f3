"""HMAC vectors: per-receiver message authentication codes.

Two consumers:

- the aom-hm sequencer switch writes a vector of tags, one per receiver,
  into the aom header (§4.3) — transferable because the *whole* vector
  travels with the message, so any receiver can forward the message and
  the recipient checks its own entry;
- PBFT-style baselines authenticate replica-to-replica messages with MAC
  vectors over pairwise session keys (the classic O(N^2) authenticator
  pattern Table 1 charges them for), made and checked by
  :class:`~repro.crypto.backend.CryptoContext`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Tuple

HMAC_TAG_SIZE = 4


def sim_mac(key: bytes, data: bytes) -> bytes:
    """A 4-byte keyed BLAKE2s tag, computed in C.

    The simulation's MAC for replica and client messages and for the
    switch's HMAC vectors. All the protocols need is that a tag
    verifies if and only if it was made with that key over those bytes;
    the simulated cost of a HalfSipHash is charged separately by the
    cost model.
    """
    return hashlib.blake2s(data, key=key, digest_size=HMAC_TAG_SIZE).digest()


def mac_state(key: bytes):
    """A keyed BLAKE2s state for :func:`mac_with`, prepared once per key.

    Keying BLAKE2s costs one compression of the padded key block; a
    prepared state has done it already, so each tag skips it.
    """
    return hashlib.blake2s(key=key, digest_size=HMAC_TAG_SIZE)


def mac_with(state, data: bytes) -> bytes:
    """``sim_mac(key, data)`` from ``state = mac_state(key)``."""
    tagger = state.copy()
    tagger.update(data)
    return tagger.digest()


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
