"""The USIG trusted component (Unique Sequential Identifier Generator).

The USIG is the whole trusted computing base of MinBFT: a monotonic
counter plus a certification key living inside an enclave. ``create_ui``
binds a message to the *next* counter value; ``verify_ui`` checks the
binding. Correctness properties the tests exercise:

- uniqueness: one counter value is never issued for two messages;
- monotonicity: counter values are issued in strictly increasing order,
  with no gaps;
- unforgeability: a UI that was not produced by the owning enclave's
  ``create_ui`` fails verification: ``verify_ui`` checks the attestation
  against the enclave identity of the replica the UI names, so neither
  another enclave nor the replica's own signing key can attest for it.

Cost model: each ``create_ui`` charges an enclave transition plus the
attested increment (the dominant per-message cost the paper observed
running USIG inside SGX); ``verify_ui`` charges the verification side.
"""

from __future__ import annotations


from repro.crypto.backend import CryptoContext, KeyAuthority
from repro.crypto.digests import fields_digest
from repro.records import record

#: Offset separating USIG enclave identities from replica identities in
#: the key authority's namespace.
USIG_IDENTITY_OFFSET = 500_000


@record(frozen=True)
class UsigCertificate:
    """A unique identifier: (replica, counter, attestation signature)."""

    replica: int
    counter: int
    attestation: bytes

    def wire_size(self) -> int:
        return 16 + len(self.attestation)


def _ui_body(replica: int, counter: int, message_digest: bytes) -> bytes:
    return fields_digest(b"usig", replica, counter, message_digest)


class Usig:
    """One replica's trusted counter enclave."""

    def __init__(self, replica_id: int, authority: KeyAuthority, crypto: CryptoContext):
        self.replica_id = replica_id
        self.identity = USIG_IDENTITY_OFFSET + replica_id
        self.authority = authority
        self.crypto = crypto
        self.counter = 0
        authority.register(self.identity)

    def create_ui(self, message_digest: bytes) -> UsigCertificate:
        """Assign the next counter value to a message (charged)."""
        self.crypto.bill(self.crypto.cost.usig_create_ns)
        self.counter += 1
        body = _ui_body(self.replica_id, self.counter, message_digest)
        attestation = self.authority.sign_as(self.identity, body)
        return UsigCertificate(self.replica_id, self.counter, attestation)

    def verify_ui(self, ui: UsigCertificate, message_digest: bytes) -> bool:
        """Check that a UI was produced by the claimed replica's enclave."""
        self.crypto.bill(self.crypto.cost.usig_verify_ns)
        body = _ui_body(ui.replica, ui.counter, message_digest)
        return self.authority.verify(USIG_IDENTITY_OFFSET + ui.replica, body, ui.attestation)
