"""MinBFT (IEEE ToC '13): BFT with 2f+1 replicas via a trusted USIG.

Each replica hosts a Unique Sequential Identifier Generator inside a
trusted component (Intel SGX in the paper's testbed). Because a faulty
replica cannot produce two different messages with the same counter
value, equivocation is impossible and the replication factor drops to
2f+1 with four message delays (prepare + commit). Authenticator
complexity stays O(N^2) — every commit is all-to-all with USIG
verification — which caps its throughput in Figure 7.
"""

from repro.protocols.minbft.replica import MinBftReplica
from repro.protocols.minbft.usig import Usig, UsigCertificate

__all__ = ["MinBftReplica", "Usig", "UsigCertificate"]
