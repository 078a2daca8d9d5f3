"""SipHash-2-4 and HalfSipHash-2-4, implemented from the reference design.

SipHash (Aumasson & Bernstein, INDOCRYPT 2012) is the keyed short-input PRF
the paper builds its in-switch HMAC on. HalfSipHash is the 32-bit-word
variant that Yoo & Chen showed fits a Tofino pipeline; NeoBFT's aom-hm
switch unrolls it across 12 pipeline passes. We implement both:

- :func:`siphash24` — full 64-bit SipHash-2-4 (16-byte key, 8-byte tag),
  validated against the reference test vectors in the test suite;
- :func:`halfsiphash24` — HalfSipHash-2-4 (8-byte key, 4-byte tag), the
  exact function the simulated switch pipeline computes, exposed both as a
  one-shot function and as :class:`HalfSipHashState`, a pass-by-pass state
  machine mirroring how the hardware spreads rounds over pipeline passes.
"""

from __future__ import annotations

from typing import List

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK32 = 0xFFFFFFFF


def _rotl64(value: int, bits: int) -> int:
    return ((value << bits) | (value >> (64 - bits))) & _MASK64


def _rotl32(value: int, bits: int) -> int:
    return ((value << bits) | (value >> (32 - bits))) & _MASK32


def _sipround64(v0: int, v1: int, v2: int, v3: int):
    v0 = (v0 + v1) & _MASK64
    v1 = _rotl64(v1, 13)
    v1 ^= v0
    v0 = _rotl64(v0, 32)
    v2 = (v2 + v3) & _MASK64
    v3 = _rotl64(v3, 16)
    v3 ^= v2
    v0 = (v0 + v3) & _MASK64
    v3 = _rotl64(v3, 21)
    v3 ^= v0
    v2 = (v2 + v1) & _MASK64
    v1 = _rotl64(v1, 17)
    v1 ^= v2
    v2 = _rotl64(v2, 32)
    return v0, v1, v2, v3


def siphash24(key: bytes, data: bytes) -> bytes:
    """SipHash-2-4: 16-byte ``key``, arbitrary ``data`` -> 8-byte tag."""
    if len(key) != 16:
        raise ValueError("SipHash-2-4 requires a 16-byte key")
    k0 = int.from_bytes(key[:8], "little")
    k1 = int.from_bytes(key[8:], "little")
    v0 = k0 ^ 0x736F6D6570736575
    v1 = k1 ^ 0x646F72616E646F6D
    v2 = k0 ^ 0x6C7967656E657261
    v3 = k1 ^ 0x7465646279746573

    tail = len(data) % 8
    end = len(data) - tail
    for offset in range(0, end, 8):
        m = int.from_bytes(data[offset : offset + 8], "little")
        v3 ^= m
        v0, v1, v2, v3 = _sipround64(v0, v1, v2, v3)
        v0, v1, v2, v3 = _sipround64(v0, v1, v2, v3)
        v0 ^= m
    b = (len(data) & 0xFF) << 56
    b |= int.from_bytes(data[end:].ljust(7, b"\x00")[:7], "little")
    v3 ^= b
    v0, v1, v2, v3 = _sipround64(v0, v1, v2, v3)
    v0, v1, v2, v3 = _sipround64(v0, v1, v2, v3)
    v0 ^= b
    v2 ^= 0xFF
    for _ in range(4):
        v0, v1, v2, v3 = _sipround64(v0, v1, v2, v3)
    return ((v0 ^ v1 ^ v2 ^ v3) & _MASK64).to_bytes(8, "little")


def _sipround32(v0: int, v1: int, v2: int, v3: int):
    v0 = (v0 + v1) & _MASK32
    v1 = _rotl32(v1, 5)
    v1 ^= v0
    v0 = _rotl32(v0, 16)
    v2 = (v2 + v3) & _MASK32
    v3 = _rotl32(v3, 8)
    v3 ^= v2
    v0 = (v0 + v3) & _MASK32
    v3 = _rotl32(v3, 7)
    v3 ^= v0
    v2 = (v2 + v1) & _MASK32
    v1 = _rotl32(v1, 13)
    v1 ^= v2
    v2 = _rotl32(v2, 16)
    return v0, v1, v2, v3


def halfsiphash24(key: bytes, data: bytes) -> bytes:
    """HalfSipHash-2-4: 8-byte ``key``, arbitrary ``data`` -> 4-byte tag.

    The round function is unrolled inline. Byte-identical to driving
    :class:`HalfSipHashState` (the property tests cross-check the two);
    kept separate because the state machine exists to mirror the
    hardware pipeline pass-by-pass.
    """
    if len(key) != 8:
        raise ValueError("HalfSipHash-2-4 requires an 8-byte key")
    k0 = int.from_bytes(key[:4], "little")
    k1 = int.from_bytes(key[4:], "little")
    v0 = k0
    v1 = k1
    v2 = 0x6C796765 ^ k0
    v3 = 0x74656463 ^ k1
    mask = _MASK32
    length = len(data)
    end = length - (length % 4)
    offset = 0
    while True:
        if offset < end:
            m = int.from_bytes(data[offset : offset + 4], "little")
            offset += 4
            final = False
        else:
            m = ((length & 0xFF) << 24) | int.from_bytes(
                data[end:].ljust(3, b"\x00")[:3], "little"
            )
            final = True
        v3 ^= m
        for _ in range(2):  # C_ROUNDS
            v0 = (v0 + v1) & mask
            v1 = ((v1 << 5) | (v1 >> 27)) & mask
            v1 ^= v0
            v0 = ((v0 << 16) | (v0 >> 16)) & mask
            v2 = (v2 + v3) & mask
            v3 = ((v3 << 8) | (v3 >> 24)) & mask
            v3 ^= v2
            v0 = (v0 + v3) & mask
            v3 = ((v3 << 7) | (v3 >> 25)) & mask
            v3 ^= v0
            v2 = (v2 + v1) & mask
            v1 = ((v1 << 13) | (v1 >> 19)) & mask
            v1 ^= v2
            v2 = ((v2 << 16) | (v2 >> 16)) & mask
        v0 ^= m
        if final:
            break
    v2 ^= 0xFF
    for _ in range(4):  # D_ROUNDS
        v0 = (v0 + v1) & mask
        v1 = ((v1 << 5) | (v1 >> 27)) & mask
        v1 ^= v0
        v0 = ((v0 << 16) | (v0 >> 16)) & mask
        v2 = (v2 + v3) & mask
        v3 = ((v3 << 8) | (v3 >> 24)) & mask
        v3 ^= v2
        v0 = (v0 + v3) & mask
        v3 = ((v3 << 7) | (v3 >> 25)) & mask
        v3 ^= v0
        v2 = (v2 + v1) & mask
        v1 = ((v1 << 13) | (v1 >> 19)) & mask
        v1 ^= v2
        v2 = ((v2 << 16) | (v2 >> 16)) & mask
    return ((v1 ^ v3) & mask).to_bytes(4, "little")


class HalfSipHashState:
    """Incremental HalfSipHash-2-4, one 4-byte message word per absorb step.

    It steps the hash the way the switch hardware does, pass by pass: each
    pipeline pass performs a bounded number of SipRounds, so the number of
    :meth:`rounds_executed` maps directly onto pipeline passes. The
    simulated switch (:mod:`repro.switchfab.hmac_pipeline`) models only
    those passes' timing and resources; its tags come from
    :func:`repro.crypto.hmacvec.sim_mac`.
    """

    C_ROUNDS = 2
    D_ROUNDS = 4

    def __init__(self, key: bytes):
        if len(key) != 8:
            raise ValueError("HalfSipHash-2-4 requires an 8-byte key")
        k0 = int.from_bytes(key[:4], "little")
        k1 = int.from_bytes(key[4:], "little")
        self.v0 = k0
        self.v1 = k1
        self.v2 = 0x6C796765 ^ k0
        self.v3 = 0x74656463 ^ k1
        self.length = 0
        self._buffer = b""
        self.rounds_executed = 0
        self._finalized = False

    def _round(self) -> None:
        self.v0, self.v1, self.v2, self.v3 = _sipround32(self.v0, self.v1, self.v2, self.v3)
        self.rounds_executed += 1

    def _compress_word(self, word: int) -> None:
        self.v3 ^= word
        for _ in range(self.C_ROUNDS):
            self._round()
        self.v0 ^= word

    def absorb(self, data: bytes) -> None:
        """Feed message bytes; whole 4-byte words are compressed eagerly."""
        if self._finalized:
            raise RuntimeError("state already finalized")
        self.length += len(data)
        self._buffer += data
        while len(self._buffer) >= 4:
            word = int.from_bytes(self._buffer[:4], "little")
            self._buffer = self._buffer[4:]
            self._compress_word(word)

    def finalize(self) -> bytes:
        """Run the finalization rounds and return the 4-byte tag."""
        if self._finalized:
            raise RuntimeError("state already finalized")
        self._finalized = True
        b = (self.length & 0xFF) << 24
        b |= int.from_bytes(self._buffer.ljust(3, b"\x00")[:3], "little")
        self._compress_word(b)
        self.v2 ^= 0xFF
        for _ in range(self.D_ROUNDS):
            self._round()
        return ((self.v1 ^ self.v3) & _MASK32).to_bytes(4, "little")


def halfsiphash_rounds_for(data_len: int) -> int:
    """Total SipRounds HalfSipHash-2-4 executes for a ``data_len``-byte input.

    Used by the switch pipeline model to derive how many pipeline passes a
    vector computation needs (the unrolled Tofino design executes one round
    per stage group, 12 passes for the aom header input).
    """
    words = data_len // 4 + 1  # +1 for the length/padding word
    return words * HalfSipHashState.C_ROUNDS + HalfSipHashState.D_ROUNDS


def halfsiphash_vector(keys: List[bytes], data: bytes) -> List[bytes]:
    """Compute one HalfSipHash tag per key (the aom-hm HMAC vector)."""
    return [halfsiphash24(key, data) for key in keys]
