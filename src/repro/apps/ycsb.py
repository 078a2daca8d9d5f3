"""YCSB workload generation (§6.5 runs workload A: 50/50 read-update).

Implements the pieces of the Yahoo! Cloud Serving Benchmark the paper's
storage experiment needs: the scrambled-zipfian key chooser over a fixed
record population, the standard workload mixes, and the record loader
(100 K records x 128-byte fields in the paper's configuration).
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, List

from repro.apps.kvstore.store import encode_get, encode_put
from repro.records import record

ZIPFIAN_CONSTANT = 0.99


def zipfian_sampler(n: int, rng: random.Random, theta: float = ZIPFIAN_CONSTANT) -> Callable[[], int]:
    """Return a sampler of zipfian-distributed ranks in [0, n).

    Standard Gray et al. rejection-free construction, as used by the YCSB
    reference implementation.
    """
    if n < 1:
        raise ValueError("population must be positive")
    zetan = _zeta(n, theta)
    zeta2 = _zeta(2, theta)
    alpha = 1.0 / (1.0 - theta)
    eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - zeta2 / zetan)

    def sample() -> int:
        u = rng.random()
        uz = u * zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**theta:
            return 1
        return int(n * (eta * u - eta + 1.0) ** alpha)

    return sample


def _zeta(n: int, theta: float) -> float:
    return sum(1.0 / (i**theta) for i in range(1, n + 1))


def scramble(rank: int) -> int:
    """Hash-scramble a rank so hot keys spread over the key space.

    Injective in practice (full 64-bit image, not reduced mod n), so the
    loader produces exactly one record per rank.
    """
    digest = hashlib.sha256(rank.to_bytes(8, "big")).digest()
    return int.from_bytes(digest[:8], "big")


@record(frozen=True)
class WorkloadMix:
    """Operation proportions of one YCSB workload."""

    read: float
    update: float
    insert: float = 0.0

    def __post_init__(self):
        total = self.read + self.update + self.insert
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"workload mix must sum to 1.0, got {total}")


#: Standard mixes. The paper runs Workload A.
WORKLOAD_A = WorkloadMix(read=0.5, update=0.5)
WORKLOAD_B = WorkloadMix(read=0.95, update=0.05)
WORKLOAD_C = WorkloadMix(read=1.0, update=0.0)


class YcsbWorkload:
    """An operation stream over a fixed record population."""

    def __init__(
        self,
        record_count: int = 100_000,
        field_bytes: int = 128,
        mix: WorkloadMix = WORKLOAD_A,
        rng: random.Random = None,
        key_bytes: int = 16,
    ):
        self.record_count = record_count
        self.field_bytes = field_bytes
        self.mix = mix
        self.rng = rng or random.Random(0)
        self.key_bytes = key_bytes
        self._zipf = zipfian_sampler(record_count, self.rng)
        self.ops_generated = 0

    def key_for(self, rank: int) -> bytes:
        """The canonical key of record ``rank``."""
        return b"user%020d" % scramble(rank)

    def value(self) -> bytes:
        """A fresh random field value of the configured size."""
        return bytes(self.rng.getrandbits(8) for _ in range(min(self.field_bytes, 8))) + b"\x00" * max(
            0, self.field_bytes - 8
        )

    def initial_records(self) -> List[tuple]:
        """(key, value) pairs to bulk-load before the measured run."""
        filler = b"\x2a" * self.field_bytes
        return [(self.key_for(rank), filler) for rank in range(self.record_count)]

    def next_op(self) -> bytes:
        """Generate the next encoded KV operation per the workload mix."""
        self.ops_generated += 1
        key = self.key_for(self._zipf())
        roll = self.rng.random()
        if roll < self.mix.read:
            return encode_get(key)
        return encode_put(key, self.value())
