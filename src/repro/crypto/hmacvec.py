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

An :class:`HmacVector` mirrors the aom-hm header, which carries one
``HMAC_TAG_SIZE``-byte tag per receiver in receiver order: ``ids`` names
the receivers and ``packed`` holds their tags back to back, so a
receiver's tag is the slice at its position in ``ids``. Every vector
made over one peer tuple shares that tuple, so a retained vector costs
one bytes object beyond the vector itself.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

from repro.records import record

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


@record(frozen=True)
class HmacVector:
    """Per-receiver tags over one input: ``HMAC_TAG_SIZE`` bytes of
    ``packed`` per id in ``ids``, in ``ids`` order."""

    ids: Tuple[int, ...]
    packed: bytes

    def tag_for(self, receiver_id: int) -> bytes:
        """The tag computed under ``receiver_id``'s key."""
        try:
            start = self.ids.index(receiver_id) * HMAC_TAG_SIZE
        except ValueError:
            raise KeyError(f"no HMAC entry for receiver {receiver_id}") from None
        return self.packed[start : start + HMAC_TAG_SIZE]

    def has_entry(self, receiver_id: int) -> bool:
        """Whether the vector covers ``receiver_id``."""
        return receiver_id in self.ids

    def receivers(self) -> List[int]:
        """Receiver ids covered, in vector order."""
        return list(self.ids)

    def wire_size(self) -> int:
        """Bytes this vector occupies in a packet header."""
        return len(self.ids) * (2 + HMAC_TAG_SIZE)

    def merge(self, other: "HmacVector") -> "HmacVector":
        """Combine two partial vectors (subgroup packets reassembling §4.3)."""
        ids = list(self.ids)
        packed = [self.packed]
        for rid in other.ids:
            if rid not in self.ids:
                ids.append(rid)
                packed.append(other.tag_for(rid))
        return HmacVector(tuple(ids), b"".join(packed))
