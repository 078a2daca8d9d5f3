"""PBFT (Castro & Liskov, OSDI '99) with the standard MAC-authenticator
and batching optimizations.

Five message delays: request -> pre-prepare -> prepare (all-to-all) ->
commit (all-to-all) -> reply. Bottleneck complexity O(N) at every replica,
authenticator complexity O(N^2) per decision — the costs Table 1 charges
it for and the reason Figure 7 shows it well below NeoBFT.
"""

from repro.protocols.pbft.replica import PbftReplica

__all__ = ["PbftReplica"]
