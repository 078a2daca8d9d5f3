"""The FPGA public-key coprocessor model (§4.4, Figure 3, Table 3).

Models the Alveo U50 design the paper built: a 100 Gbps packet path
(parser -> SHA-256 hash chain -> signer -> stream merger) plus the two
mechanisms that make line-ish-rate signing possible:

- a **pre-computer** continuously producing nonce points ``(k, k*G)`` into
  a block-RAM table ("stock"); each signature consumes one entry, so the
  sustainable signing rate is bounded by the precompute rate;
- a **signing-ratio controller** that skips signing individual packets
  when the stock falls below a threshold. Skipped packets still carry the
  SHA-256 hash of the preceding packet in the sequence (hash chaining), so
  the next signed packet authenticates the whole unsigned run.

The model enforces a floor on signing frequency (``max_unsigned_run``) so
receivers never wait unboundedly for a verifiable packet.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.records import record
from repro.sim.clock import us
from repro.switchfab.tofino import PacketEngine


@record(frozen=True)
class FpgaBudget:
    """Total programmable resources of the card (Alveo U50)."""

    lut: int = 870_000
    register: int = 1_740_000
    bram: int = 1_344
    dsp: int = 5_940


FPGA_BUDGET = FpgaBudget()

#: Service rate of the signer unit.
SIGNER_RATE_PPS = 980_000.0
#: Packet-path latency (parser, hash chain, signer, merger) at idle.
PATH_LATENCY_NS = 2_300


@record(frozen=True)
class FpgaModule:
    """Resource demand of one hardware module."""

    name: str
    lut: int
    register: int
    bram: int
    dsp: int


#: Module inventory of the coprocessor design (Table 3's rows derive from
#: these; "Pipeline" = parser + packet updater + stream merger).
FPGA_MODULES = (
    FpgaModule("Pipeline", lut=7_917, register=12_180, bram=28, dsp=34),
    FpgaModule("Signer", lut=182_700, register=337_560, bram=144, dsp=1_694),
    FpgaModule("Pre-computer", lut=58_000, register=90_000, bram=170, dsp=4),
    FpgaModule("SHA-256 chain", lut=30_000, register=40_000, bram=15, dsp=0),
    FpgaModule("QSFP + control", lut=23_186, register=28_688, bram=30, dsp=0),
)


@record
class ChainedToken:
    """The authenticator aom-pk packets carry."""

    prev_digest: bytes
    signature: Optional[bytes]

    def wire_size(self) -> int:
        size = len(self.prev_digest)
        if self.signature is not None:
            size += len(self.signature)
        return size


class FpgaCoprocessor:
    """Behavioural model of the signing coprocessor.

    Parameters
    ----------
    sign:
        Callable producing the signature tag over given bytes under the
        sequencer switch's identity (bound by the aom layer).
    packet_rate_pps:
        The packet path's throughput ceiling (parser/hash/merger at
        100 Gbps for 64 B packets after framing: ~1.1 Mpps in the paper's
        measured design).
    precompute_rate_eps:
        Service rate of the pre-computer.
    """

    def __init__(
        self,
        sign: Callable[[bytes], bytes],
        packet_rate_pps: float = 1_110_000.0,
        precompute_rate_eps: float = 920_000.0,
        stock_capacity: int = 4_096,
        stock_low_threshold: int = 256,
        max_unsigned_run: int = 32,
        max_queue_ns: int = us(300),
    ):
        self._sign = sign
        self.packet_engine = PacketEngine(packet_rate_pps, PATH_LATENCY_NS, max_queue_ns)
        self.signer_engine = PacketEngine(SIGNER_RATE_PPS, 0, max_queue_ns)
        self.precompute_rate_eps = precompute_rate_eps
        self.stock_capacity = stock_capacity
        self.stock_low_threshold = stock_low_threshold
        self.max_unsigned_run = max_unsigned_run
        self._stock = float(stock_capacity)
        self._last_refill = 0
        self._unsigned_run = 0
        self.signatures_issued = 0
        self.signatures_skipped = 0

    # ----------------------------------------------------------- internals

    def _refill_stock(self, now: int) -> None:
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._stock = min(
                float(self.stock_capacity),
                self._stock + elapsed * self.precompute_rate_eps / 1e9,
            )
            self._last_refill = now

    def stock_level(self, now: int) -> int:
        """Current pre-computed entry stock (for tests and telemetry)."""
        self._refill_stock(now)
        return int(self._stock)

    def _should_sign(self, now: int) -> bool:
        self._refill_stock(now)
        if self._stock < 1.0:
            return False
        if self._unsigned_run + 1 >= self.max_unsigned_run:
            return True
        return self._stock >= self.stock_low_threshold

    # ------------------------------------------------------------- process

    def process(self, arrival: int, auth_input: bytes, prev_digest: bytes) -> Optional[Tuple[int, ChainedToken]]:
        """Run one packet through the coprocessor.

        ``auth_input`` is the packet's authenticator input (digest || seq,
        already chained over ``prev_digest`` by the caller). Returns
        ``(completion_time, token)`` or None if the tail-drop queue rejects
        the packet.
        """
        done = self.packet_engine.admit(arrival)
        if done is None:
            return None
        signature: Optional[bytes] = None
        if self._should_sign(arrival):
            sign_done = self.signer_engine.admit(arrival)
            if sign_done is not None:
                self._stock -= 1.0
                signature = self._sign(auth_input)
                self.signatures_issued += 1
                self._unsigned_run = 0
                done = max(done, sign_done + self.packet_engine.pipeline_latency_ns)
        if signature is None:
            self.signatures_skipped += 1
            self._unsigned_run += 1
        return done, ChainedToken(prev_digest=prev_digest, signature=signature)

    # ------------------------------------------------------------- reports

    @staticmethod
    def resource_report(budget: FpgaBudget = FPGA_BUDGET) -> List[Tuple[str, float, float, float, float]]:
        """Table 3 rows: per-module and total utilization percentages."""
        rows = []
        totals = [0, 0, 0, 0]
        for module in FPGA_MODULES:
            usage = (module.lut, module.register, module.bram, module.dsp)
            for i, amount in enumerate(usage):
                totals[i] += amount
            rows.append(
                (
                    module.name,
                    100.0 * module.lut / budget.lut,
                    100.0 * module.register / budget.register,
                    100.0 * module.bram / budget.bram,
                    100.0 * module.dsp / budget.dsp,
                )
            )
        rows.append(
            (
                "Total",
                100.0 * totals[0] / budget.lut,
                100.0 * totals[1] / budget.register,
                100.0 * totals[2] / budget.bram,
                100.0 * totals[3] / budget.dsp,
            )
        )
        return rows
