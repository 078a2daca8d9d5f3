"""HotStuff (PODC '19): linear-communication BFT with threshold signatures.

Basic (non-chained) HotStuff with a stable leader and pipelining: each
batch goes through prepare -> pre-commit -> commit vote rounds, each
round collecting n-f threshold-signature shares into a quorum
certificate. Linear authenticator complexity, but every phase pays
threshold-crypto cost at the leader — which is why HotStuff trades the
worst latency in Figure 7 for view-change simplicity, and why heavy
batching is the only way it approaches the others' throughput.
"""

from repro.protocols.hotstuff.replica import HotStuffReplica

__all__ = ["HotStuffReplica"]
