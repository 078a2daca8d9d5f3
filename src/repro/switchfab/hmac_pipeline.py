"""The folded-pipeline HMAC vector generator (§4.3, Figure 2).

Architecture being modeled, faithful to the paper:

- one switch pipe (pipe 1) is dedicated to HMAC computation;
- the reference HalfSipHash needs 6 pipeline passes per tag; the unrolled
  design trades passes for parallelism — 12 passes, but 4 HalfSipHash
  instances running side by side, so a 4-entry vector costs 12 passes
  total;
- receivers are partitioned into subgroups of 4; a group of g receivers
  needs ceil(g/4) subgroup computations, fanned out over the pipe's 16
  loopback ports, and produces ceil(g/4) partial-vector packets that every
  receiver gets and reassembles;
- for small groups the spare loopback ports load-balance, so the ceiling
  rate is per-subgroup-computation, shared across concurrent packets.

Timing consequences (these produce Figures 4 and 6):

- fixed latency = 12 passes x per-pass latency (~9 us median);
- engine capacity = base vector rate / subgroup count, so throughput
  falls roughly inversely with group size beyond 4 receivers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.crypto.hmacvec import HmacVector, mac_state, mac_with
from repro.records import record
from repro.sim.clock import ns, us
from repro.switchfab.tofino import (
    PacketEngine,
    PipeProgram,
    ResourceReport,
    TableSpec,
    compile_pipe,
)

SUBGROUP_SIZE = 4
LOOPBACK_PORTS = 16
UNROLLED_PASSES = 12
MAX_RECEIVERS = SUBGROUP_SIZE * LOOPBACK_PORTS  # 64, as in the paper


@record
class PartialVector:
    """One subgroup packet's worth of HMAC entries."""

    subgroup_index: int
    total_subgroups: int
    vector: HmacVector

    def wire_size(self) -> int:
        return 4 + self.vector.wire_size()


class FoldedHmacPipeline:
    """The HMAC module occupying the dedicated pipe."""

    def __init__(
        self,
        receiver_keys: Sequence[Tuple[int, bytes]],
        base_vector_rate_pps: float = 77_000_000.0,
        pass_latency_ns: int = ns(750),
        max_queue_ns: int = us(400),
    ):
        if len(receiver_keys) == 0:
            raise ValueError("HMAC pipeline needs at least one receiver key")
        if len(receiver_keys) > MAX_RECEIVERS:
            raise ValueError(
                f"group of {len(receiver_keys)} exceeds the {MAX_RECEIVERS}-receiver "
                f"limit of the {LOOPBACK_PORTS}-loopback-port design"
            )
        # (receiver, prepared MAC state of its key) per subgroup.
        self.subgroups: List[List[Tuple[int, object]]] = [
            [(rid, mac_state(key)) for rid, key in receiver_keys[i : i + SUBGROUP_SIZE]]
            for i in range(0, len(receiver_keys), SUBGROUP_SIZE)
        ]
        # Each subgroup's receiver ids, shared by every vector it makes.
        self.subgroup_ids: List[Tuple[int, ...]] = [
            tuple([rid for rid, _ in subgroup]) for subgroup in self.subgroups
        ]
        # One subgroup's 4-vector is the unit of work; n subgroups consume n
        # units of the shared loopback/pipe capacity.
        self.engine = PacketEngine(
            rate_pps=base_vector_rate_pps,
            pipeline_latency_ns=UNROLLED_PASSES * pass_latency_ns,
            max_queue_ns=max_queue_ns,
        )

    @property
    def subgroup_count(self) -> int:
        """Number of partial-vector packets emitted per aom message."""
        return len(self.subgroups)

    def authenticate(self, arrival: int, auth_input: bytes) -> Optional[Tuple[int, List[PartialVector]]]:
        """Submit one message for vector generation.

        Returns ``(completion_time, partial_vectors)`` or None when the
        loopback queue tail-drops the packet under overload.
        """
        done = self.engine.admit(arrival, work_units=float(self.subgroup_count))
        if done is None:
            return None
        partials = []
        for index, subgroup in enumerate(self.subgroups):
            vector = HmacVector(
                self.subgroup_ids[index],
                b"".join([mac_with(state, auth_input) for _, state in subgroup]),
            )
            partials.append(
                PartialVector(
                    subgroup_index=index,
                    total_subgroups=self.subgroup_count,
                    vector=vector,
                )
            )
        return done, partials

    def resource_report(self) -> List[ResourceReport]:
        """Table 2: resource usage of the two pipes.

        Pipe 0 carries ingress sequencing + routing; pipe 1 carries the
        four unrolled HalfSipHash instances. Demands are structural: each
        HalfSipHash instance contributes its per-round ALU/hash work times
        the unrolled pass count.
        """
        pipe0 = PipeProgram("Pipe 0")
        pipe0.add(TableSpec("l2_l3_forward", stages=2, action_data_bits=2_400, vliw_slots=6))
        pipe0.add(TableSpec("aom_group_match", stages=1, action_data_bits=480, hash_bits=100, vliw_slots=2))
        pipe0.add(TableSpec("seq_counter", stages=1, action_data_bits=160, vliw_slots=2))
        pipe0.add(TableSpec("mcast_select", stages=2, action_data_bits=120, vliw_slots=2))
        pipe0.add(TableSpec("loopback_steer", stages=1, action_data_bits=64, vliw_slots=1))
        report0 = compile_pipe(pipe0, stages_used=7)

        pipe1 = PipeProgram("Pipe 1")
        # Four parallel HalfSipHash instances; each unrolled round needs 4
        # ADD/XOR VLIW ops and one hash-distribution slice, spread across
        # the 12-pass schedule.
        per_instance_hash_units = 28
        per_instance_hash_bits = 264
        per_instance_vliw = 11
        per_instance_action_bits = 12_500
        for i in range(4):
            pipe1.add(
                TableSpec(
                    f"halfsiphash_{i}",
                    stages=3,
                    action_data_bits=per_instance_action_bits,
                    hash_bits=per_instance_hash_bits,
                    hash_units=per_instance_hash_units,
                    vliw_slots=per_instance_vliw,
                )
            )
        pipe1.add(TableSpec("vector_assemble", stages=0, action_data_bits=350, hash_bits=2, vliw_slots=2))
        report1 = compile_pipe(pipe1, stages_used=12)
        return [report0, report1]
