"""SHA-256 digests and hash chains.

Two uses in the paper map here:

- the aom header carries a collision-resistant digest of the payload (§4.1);
- both the FPGA coprocessor (§4.4) and NeoBFT replica logs (§5.3) use hash
  *chaining*: each element's hash covers the previous element's hash, so a
  single signature (or a single comparison) authenticates an entire prefix.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List

DIGEST_SIZE = 32

_EMPTY = b"\x00" * DIGEST_SIZE


def sha256_digest(data: bytes) -> bytes:
    """SHA-256 of ``data`` (32 bytes)."""
    return hashlib.sha256(data).digest()


def chain_step(previous: bytes, element_digest: bytes) -> bytes:
    """One hash-chain link: H(previous || element_digest)."""
    return hashlib.sha256(previous + element_digest).digest()


class HashChain:
    """An append-only hash chain with O(1) incremental head computation.

    NeoBFT replies carry ``log-hash`` — the chain head over the log prefix —
    computed in O(1) per request exactly as Speculative Paxos does. The
    chain also supports truncation for speculative rollback: heads for every
    retained position are kept so rolling back to length *k* is O(1) too.
    ``release_below`` forgets the heads before a length (the log's
    low-water mark); the head *at* that length stays as the chain's base.
    """

    def __init__(self):
        self._base = 0  # length of the chain at _heads[0]
        self._heads: List[bytes] = [_EMPTY]

    def append(self, element_digest: bytes) -> bytes:
        """Extend the chain by one element; returns the new head."""
        head = chain_step(self._heads[-1], element_digest)
        self._heads.append(head)
        return head

    @property
    def head(self) -> bytes:
        """Current chain head."""
        return self._heads[-1]

    def __len__(self) -> int:
        """Number of elements appended (genesis excluded)."""
        return self._base + len(self._heads) - 1

    def head_at(self, length: int) -> bytes:
        """Chain head after the first ``length`` elements."""
        if not self._base <= length <= len(self):
            raise IndexError(f"no head recorded for length {length}")
        return self._heads[length - self._base]

    def truncate(self, length: int) -> None:
        """Roll the chain back to its first ``length`` elements."""
        if not self._base <= length <= len(self):
            raise IndexError(f"cannot truncate chain of {len(self)} to {length}")
        del self._heads[length - self._base + 1 :]

    def release_below(self, length: int) -> None:
        """Forget the heads before ``length``; ``head_at(length)`` stays."""
        if not self._base <= length <= len(self):
            raise IndexError(f"cannot release chain of {len(self)} below {length}")
        del self._heads[: length - self._base]
        self._base = length


_INT_FIELD = struct.Struct(">Iq").pack
_LENGTH = struct.Struct(">I").pack


def fields_digest(*fields) -> bytes:
    """SHA-256 over an unambiguous encoding of message fields.

    Every field is length-prefixed with a 4-byte big-endian length. An
    ``int`` (``IntEnum`` included) is 8 bytes big-endian signed, so it
    raises outside the signed 64-bit range; any other field is its bytes.
    Every signed body, canonical form and header digest is built here.
    """
    parts = []
    for field in fields:
        if isinstance(field, int):
            parts.append(_INT_FIELD(8, field))
        else:
            parts.append(_LENGTH(len(field)))
            parts.append(field)
    return hashlib.sha256(b"".join(parts)).digest()


def remember(message, name: str, value: bytes) -> bytes:
    """Keep ``value`` as ``message.<name>`` on a frozen message; return it.

    A message that memoizes a digest declares ``<name>`` as a memo slot,
    ``record(frozen=True, memo=("<name>",))``, and computes the digest
    once per instance, so every receiver of one sent object reuses it.
    ``dataclasses.replace`` builds a new instance, whose ``__init__`` sets
    the memo to ``None``, so a modified copy (a forged one, say) starts
    without it and is digested afresh. A name the class did not declare
    raises :class:`AttributeError`: a record instance has no attribute
    dict to put it in.
    """
    object.__setattr__(message, name, value)
    return value
