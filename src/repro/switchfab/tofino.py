"""Tofino-like pipeline model: resources and packet timing.

Two concerns live here:

1. **Resource accounting** (Table 2). A P4 program is described as a set of
   :class:`TableSpec` entries per pipe; compiling it against a
   :class:`ResourceBudget` yields utilization percentages. The budget's
   absolute capacities are normalized abstractions of Tofino-1 (vendor
   numbers are NDA'd); what the model preserves is that usage *derives
   from program structure* — e.g. four unrolled HalfSipHash instances
   consume 4x the hash units of one — so architectural comparisons and
   scaling arguments hold.

2. **Packet timing**. :class:`PacketEngine` is the single-server
   deterministic queue every in-network processing element uses: a service
   rate (throughput ceiling), a fixed pipeline latency, and a tail-drop
   bound on queue delay. Switch latency distributions (Figures 4/5) emerge
   from this queue, not from scripted distributions.
"""

from __future__ import annotations

from dataclasses import field
from typing import Dict, List, Optional, Tuple

from repro.records import record
from repro.sim.clock import us


@record(frozen=True)
class ResourceBudget:
    """Per-pipe capacity of the modeled switch ASIC."""

    stages: int = 12
    action_data_bits: int = 12 * 32_768  # action data bus bits across stages
    hash_bits: int = 12 * 416  # hash distribution unit output bits
    hash_units: int = 12 * 12  # Galois-field hash computation units
    vliw_slots: int = 12 * 32  # ALU instruction slots


#: Normalized Tofino-1 budget used by all reports.
TOFINO_BUDGET = ResourceBudget()


@record(frozen=True)
class TableSpec:
    """One logical match-action table (or hash computation step)."""

    name: str
    stages: int = 1
    action_data_bits: int = 0
    hash_bits: int = 0
    hash_units: int = 0
    vliw_slots: int = 0


@record
class PipeProgram:
    """A P4 program mapped onto one pipe."""

    name: str
    tables: List[TableSpec] = field(default_factory=list)

    def add(self, table: TableSpec) -> "PipeProgram":
        """Append a table; returns self for chaining."""
        self.tables.append(table)
        return self

    def totals(self) -> Dict[str, int]:
        """Summed resource demand across tables."""
        return {
            "stages": max((t.stages for t in self.tables), default=0)
            if self._stages_are_parallel()
            else sum(t.stages for t in self.tables),
            "action_data_bits": sum(t.action_data_bits for t in self.tables),
            "hash_bits": sum(t.hash_bits for t in self.tables),
            "hash_units": sum(t.hash_units for t in self.tables),
            "vliw_slots": sum(t.vliw_slots for t in self.tables),
        }

    def _stages_are_parallel(self) -> bool:
        # Tables marked with the same stage count co-reside when the
        # program declares itself folded; default is sequential placement.
        return False


@record
class ResourceReport:
    """Utilization of one pipe against the budget (Table 2 rows)."""

    pipe: str
    stages_used: int
    action_data_pct: float
    hash_bits_pct: float
    hash_units_pct: float
    vliw_pct: float

    def row(self) -> Tuple[str, int, str, str, str, str]:
        """Formatted row matching the paper's Table 2 columns."""
        return (
            self.pipe,
            self.stages_used,
            f"{self.action_data_pct:.1f}%",
            f"{self.hash_bits_pct:.1f}%",
            f"{self.hash_units_pct:.1f}%",
            f"{self.vliw_pct:.1f}%",
        )


def compile_pipe(
    program: PipeProgram,
    budget: ResourceBudget = TOFINO_BUDGET,
    stages_used: Optional[int] = None,
) -> ResourceReport:
    """Place a program against a budget and report utilization.

    Raises if any dimension exceeds capacity — the same failure mode as the
    real compiler, which §4.3 explains forced the folded-pipeline design.
    """
    totals = program.totals()
    used_stages = stages_used if stages_used is not None else totals["stages"]
    if used_stages > budget.stages:
        raise ResourceExhausted(
            f"{program.name}: needs {used_stages} stages, pipe has {budget.stages}"
        )
    pct = {}
    for dimension in ("action_data_bits", "hash_bits", "hash_units", "vliw_slots"):
        capacity = getattr(budget, dimension if dimension != "vliw_slots" else "vliw_slots")
        demand = totals[dimension]
        if demand > capacity:
            raise ResourceExhausted(
                f"{program.name}: {dimension} demand {demand} exceeds capacity {capacity}"
            )
        pct[dimension] = 100.0 * demand / capacity
    return ResourceReport(
        pipe=program.name,
        stages_used=used_stages,
        action_data_pct=pct["action_data_bits"],
        hash_bits_pct=pct["hash_bits"],
        hash_units_pct=pct["hash_units"],
        vliw_pct=pct["vliw_slots"],
    )


class ResourceExhausted(Exception):
    """The program does not fit the pipe."""


class PacketEngine:
    """Deterministic single-server queue for in-network processing.

    Parameters
    ----------
    rate_pps:
        Sustained service rate in packets per second (the throughput
        ceiling the engine enforces).
    pipeline_latency_ns:
        Fixed traversal latency added to every packet on top of queueing.
    max_queue_ns:
        Tail-drop bound: a packet whose queueing delay would exceed this is
        dropped (the coprocessor's tail-drop offload queue; also models
        finite switch buffering).
    """

    def __init__(
        self,
        rate_pps: float,
        pipeline_latency_ns: int,
        max_queue_ns: int = us(200),
    ):
        if rate_pps <= 0:
            raise ValueError("service rate must be positive")
        self.service_ns = 1e9 / rate_pps
        self.pipeline_latency_ns = pipeline_latency_ns
        self.max_queue_ns = max_queue_ns
        self._next_free = 0.0
        self.processed = 0
        self.dropped = 0

    def admit(self, arrival: int, work_units: float = 1.0) -> Optional[int]:
        """Offer a packet at ``arrival``; returns completion time or None.

        ``work_units`` scales service time for packets that occupy the
        engine longer (e.g. an HMAC vector needing n subgroup passes).
        """
        start = max(float(arrival), self._next_free)
        queue_delay = start - arrival
        if queue_delay > self.max_queue_ns:
            self.dropped += 1
            return None
        self._next_free = start + self.service_ns * work_units
        self.processed += 1
        return int(self._next_free + self.pipeline_latency_ns)

    @property
    def saturation_rate_pps(self) -> float:
        """The engine's nominal capacity for unit-work packets."""
        return 1e9 / self.service_ns

    def backlog_ns(self, now: int) -> int:
        """Queueing delay a unit-work packet arriving now would see.

        Zero when the engine is idle; how busy the HMAC pipe or FPGA
        path currently is (telemetry reads this as an occupancy gauge).
        """
        return max(0, int(self._next_free) - now)
