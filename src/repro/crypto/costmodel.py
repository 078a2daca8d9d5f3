"""The calibrated cost model for simulated CPU charges.

Every cryptographic and message-handling operation a node performs charges
virtual CPU time through this table, whatever the simulation computed in
its place. This is the single place performance calibration lives;
DESIGN.md §4 documents the provenance of each constant (order-of-magnitude
figures for the paper's 2.9 GHz Xeon Gold testbed era).
"""

from __future__ import annotations


from repro.records import record
from repro.sim.clock import us


@record(frozen=True)
class CostModel:
    """Per-operation simulated CPU costs, in nanoseconds."""

    # Message plumbing.
    msg_handle_ns: int = us(0.6)  # kernel-bypass receive/send + dispatch
    per_byte_ns: float = 0.02  # memory/copy cost per payload byte

    # Symmetric crypto.
    hmac_ns: int = us(0.4)  # HalfSipHash/SipHash tag compute or verify
    sha256_ns: int = us(0.3)  # one short-input SHA-256

    # Public-key crypto (secp256k1).
    ecdsa_sign_ns: int = us(40.0)
    ecdsa_verify_ns: int = us(50.0)

    # MinBFT's SGX USIG: an enclave transition plus an attested increment.
    usig_create_ns: int = us(28.0)
    usig_verify_ns: int = us(26.0)

    # Threshold signatures (SBFT/HotStuff quorum certificates).
    threshold_share_sign_ns: int = us(35.0)
    threshold_share_verify_ns: int = us(45.0)
    threshold_combine_ns: int = us(60.0)
    threshold_verify_ns: int = us(50.0)

    # Application execution.
    execute_noop_ns: int = us(0.2)  # echo-RPC style trivial op
    kv_op_ns: int = us(1.5)  # one B-tree read/update incl. copies

    def message_cost(self, payload_bytes: int) -> int:
        """Charge for receiving/sending one message of ``payload_bytes``."""
        return self.msg_handle_ns + int(self.per_byte_ns * payload_bytes)


DEFAULT_COST_MODEL = CostModel()
