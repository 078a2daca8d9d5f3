"""Cryptographic substrate.

What a run computes, and what it charges for it:

- signatures are 16-byte keyed BLAKE2b tags made by the
  :class:`~repro.crypto.backend.KeyAuthority`, charged at the cost of a
  secp256k1 ECDSA sign or verify (or a threshold share, combine or USIG
  attestation); a tag verifies only for the signer the verifier names;
- MACs are keyed BLAKE2s tags (:mod:`repro.crypto.hmacvec`) in place of
  the paper's SipHash and in-switch HalfSipHash, charged at their cost;
- digests and hash chains are SHA-256 (:mod:`repro.crypto.digests`).

Every cost comes from the :class:`~repro.crypto.costmodel.CostModel`.
The switch's HalfSipHash pipeline and the FPGA's ECDSA signer are modelled
from structural parameters in :mod:`repro.switchfab`.
"""

from repro.crypto.backend import CryptoContext, KeyAuthority
from repro.crypto.costmodel import CostModel
from repro.crypto.digests import HashChain, sha256_digest
from repro.crypto.hmacvec import HmacVector

__all__ = [
    "CostModel",
    "CryptoContext",
    "HashChain",
    "HmacVector",
    "KeyAuthority",
    "sha256_digest",
]
