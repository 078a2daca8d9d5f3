"""Programmable switch hardware substrate.

Models of the two hardware artifacts the paper builds, with no knowledge
of aom semantics (the aom layer composes these):

- :mod:`repro.switchfab.tofino` — a Tofino-like pipeline resource model
  (stages, action data, hash bits/units, VLIW) used to regenerate Table 2,
  plus the generic single-server packet engine (service rate + fixed
  pipeline latency + tail-drop queue) all in-network elements share;
- :mod:`repro.switchfab.hmac_pipeline` — the folded-pipeline HMAC vector
  generator of §4.3: four parallel unrolled HalfSipHash instances, 12
  passes per vector, receiver subgroups of 4 spread over 16 loopback ports;
- :mod:`repro.switchfab.fpga` — the Alveo U50 secp256k1 coprocessor of
  §4.4: SHA-256 hash chaining, generator-multiple precompute stock,
  signing-ratio controller, and the Table 3 resource accounting.
"""

from repro.switchfab.tofino import (
    PacketEngine,
    PipeProgram,
    ResourceBudget,
    ResourceReport,
    TableSpec,
    TOFINO_BUDGET,
)
from repro.switchfab.hmac_pipeline import FoldedHmacPipeline
from repro.switchfab.fpga import FpgaCoprocessor, FPGA_BUDGET

__all__ = [
    "FPGA_BUDGET",
    "FoldedHmacPipeline",
    "FpgaCoprocessor",
    "PacketEngine",
    "PipeProgram",
    "ResourceBudget",
    "ResourceReport",
    "TOFINO_BUDGET",
    "TableSpec",
]
