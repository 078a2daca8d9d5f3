"""Cryptographic substrate.

Everything NeoBFT and the baseline protocols need, implemented from scratch
where the paper's hardware implements it from scratch:

- :mod:`repro.crypto.siphash` — SipHash-2-4 and HalfSipHash-2-4 (the paper's
  in-switch keyed hash, after Yoo & Chen's unrolled Tofino design).
- :mod:`repro.crypto.ecdsa` — secp256k1 ECDSA with a windowed generator
  precompute table (mirroring the FPGA coprocessor's precompute module).
- :mod:`repro.crypto.digests` — SHA-256 digests and hash chains (the
  coprocessor's hash-chaining technique and NeoBFT's O(1) log hash).
- :mod:`repro.crypto.hmacvec` — per-receiver HMAC vectors (PBFT-style
  authenticators and the aom-hm header authenticator).
- :mod:`repro.crypto.backend` — ``real`` (full EC math) and ``fast``
  (simulation-grade, semantics-preserving) backends behind one interface,
  both charging identical simulated CPU costs via the
  :class:`~repro.crypto.costmodel.CostModel`.
"""

from repro.crypto.backend import (
    CryptoContext,
    FastBackend,
    KeyAuthority,
    RealBackend,
    Signature,
)
from repro.crypto.costmodel import CostModel
from repro.crypto.digests import HashChain, sha256_digest
from repro.crypto.hmacvec import HmacVector
from repro.crypto.siphash import halfsiphash24, siphash24

__all__ = [
    "CostModel",
    "CryptoContext",
    "FastBackend",
    "HashChain",
    "HmacVector",
    "KeyAuthority",
    "RealBackend",
    "Signature",
    "halfsiphash24",
    "sha256_digest",
    "siphash24",
]
