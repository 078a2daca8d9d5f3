"""Tests for the switch hardware substrate: resources, queues, HMAC
pipeline, FPGA coprocessor."""

import pytest

from repro.crypto.backend import KeyAuthority
from repro.sim.clock import us
from repro.switchfab.fpga import FPGA_BUDGET, FpgaCoprocessor
from repro.switchfab.hmac_pipeline import (
    FoldedHmacPipeline,
    MAX_RECEIVERS,
    SUBGROUP_SIZE,
)
from repro.switchfab.tofino import (
    PacketEngine,
    PipeProgram,
    ResourceExhausted,
    TableSpec,
    TOFINO_BUDGET,
    compile_pipe,
)


class TestPacketEngine:
    def test_idle_packet_sees_only_pipeline_latency(self):
        engine = PacketEngine(rate_pps=1e6, pipeline_latency_ns=5_000)
        done = engine.admit(0)
        assert done == 5_000 + 1_000  # service (1us at 1Mpps) + latency

    def test_back_to_back_packets_queue(self):
        engine = PacketEngine(rate_pps=1e6, pipeline_latency_ns=0)
        first = engine.admit(0)
        second = engine.admit(0)
        assert second == first + 1_000

    def test_saturation_rate(self):
        engine = PacketEngine(rate_pps=2e6, pipeline_latency_ns=0)
        assert engine.saturation_rate_pps == pytest.approx(2e6)

    def test_tail_drop_under_overload(self):
        engine = PacketEngine(rate_pps=1e6, pipeline_latency_ns=0, max_queue_ns=us(10))
        drops = 0
        for _ in range(100):
            if engine.admit(0) is None:
                drops += 1
        assert drops > 0
        assert engine.dropped == drops
        assert engine.processed == 100 - drops

    def test_work_units_scale_service(self):
        engine = PacketEngine(rate_pps=1e6, pipeline_latency_ns=0)
        done = engine.admit(0, work_units=4.0)
        assert done == 4_000

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PacketEngine(rate_pps=0, pipeline_latency_ns=0)


class TestResourceModel:
    def test_fitting_program_compiles(self):
        program = PipeProgram("p").add(TableSpec("t", stages=2, vliw_slots=4))
        report = compile_pipe(program)
        assert report.stages_used == 2
        assert report.vliw_pct > 0

    def test_stage_overflow_rejected(self):
        program = PipeProgram("p").add(TableSpec("t", stages=13))
        with pytest.raises(ResourceExhausted):
            compile_pipe(program)

    def test_dimension_overflow_rejected(self):
        program = PipeProgram("p").add(
            TableSpec("t", stages=1, hash_units=TOFINO_BUDGET.hash_units + 1)
        )
        with pytest.raises(ResourceExhausted):
            compile_pipe(program)

    def test_report_row_formatting(self):
        program = PipeProgram("Pipe 0").add(TableSpec("t", stages=1, vliw_slots=10))
        row = compile_pipe(program).row()
        assert row[0] == "Pipe 0"
        assert row[5].endswith("%")


class TestFoldedHmacPipeline:
    def keys(self, n):
        return [(i, bytes([i]) * 8) for i in range(n)]

    def test_single_subgroup(self):
        pipeline = FoldedHmacPipeline(self.keys(4))
        assert pipeline.subgroup_count == 1
        done, partials = pipeline.authenticate(0, b"input")
        assert len(partials) == 1
        assert partials[0].vector.receivers() == [0, 1, 2, 3]

    def test_subgrouping(self):
        pipeline = FoldedHmacPipeline(self.keys(10))
        assert pipeline.subgroup_count == 3  # 4+4+2
        _, partials = pipeline.authenticate(0, b"input")
        assert [len(p.vector.ids) for p in partials] == [4, 4, 2]
        assert {p.subgroup_index for p in partials} == {0, 1, 2}

    def test_max_receivers_enforced(self):
        with pytest.raises(ValueError):
            FoldedHmacPipeline(self.keys(MAX_RECEIVERS + 1))
        FoldedHmacPipeline(self.keys(MAX_RECEIVERS))  # exactly 64 is fine

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            FoldedHmacPipeline([])

    def test_throughput_scales_inverse_with_subgroups(self):
        small = FoldedHmacPipeline(self.keys(4))
        large = FoldedHmacPipeline(self.keys(64))
        # 16 subgroups consume 16x the engine capacity per message.
        t_small = small.authenticate(0, b"x")[0]
        t_small2 = small.authenticate(0, b"x")[0]
        t_large = large.authenticate(0, b"x")[0]
        t_large2 = large.authenticate(0, b"x")[0]
        assert (t_large2 - t_large) == pytest.approx(16 * (t_small2 - t_small), rel=0.01)

    def test_fixed_latency_is_12_passes(self):
        pipeline = FoldedHmacPipeline(self.keys(4), pass_latency_ns=750)
        assert pipeline.engine.pipeline_latency_ns == 12 * 750

    def test_resource_report_matches_paper_table2(self):
        pipeline = FoldedHmacPipeline(self.keys(4))
        pipe0, pipe1 = pipeline.resource_report()
        assert pipe0.stages_used == 7
        assert pipe1.stages_used == 12
        assert pipe0.hash_units_pct == 0.0
        assert 75.0 < pipe1.hash_units_pct < 80.0  # paper: 77.8%
        assert 12.0 < pipe1.action_data_pct < 14.0  # paper: 12.8%


class TestFpgaCoprocessor:
    def make(self, **kwargs):
        authority = KeyAuthority(b"repro")
        authority.register(1)
        return FpgaCoprocessor(sign=lambda d: authority.sign_as(1, d), **kwargs), authority

    def test_signs_when_stock_full(self):
        fpga, authority = self.make()
        result = fpga.process(0, b"\x01" * 32, b"\x00" * 32)
        assert result is not None
        done, token = result
        assert token.signature is not None
        assert authority.verify(1, b"\x01" * 32, token.signature)
        assert token.prev_digest == b"\x00" * 32

    def test_stock_depletes_and_refills(self):
        fpga, _ = self.make(stock_capacity=10, stock_low_threshold=1,
                            precompute_rate_eps=1e6)
        start_stock = fpga.stock_level(0)
        for i in range(5):
            fpga.process(i, bytes([i]) * 32, b"\x00" * 32)
        assert fpga.stock_level(0) == start_stock - 5
        # After 1 ms at 1M entries/sec the stock is full again.
        assert fpga.stock_level(1_000_000) == 10

    def test_skips_signatures_when_stock_low(self):
        fpga, _ = self.make(
            stock_capacity=64,
            stock_low_threshold=60,
            precompute_rate_eps=1.0,  # effectively no refill
            max_unsigned_run=1000,
        )
        signed = skipped = 0
        for i in range(32):
            _, token = fpga.process(i * 100, bytes([i]) * 32, b"\x00" * 32)
            if token.signature is not None:
                signed += 1
            else:
                skipped += 1
        assert signed > 0 and skipped > 0
        assert fpga.signatures_issued == signed
        assert fpga.signatures_skipped == skipped

    def test_max_unsigned_run_forces_signature(self):
        fpga, _ = self.make(
            stock_capacity=1000,
            stock_low_threshold=999,  # always "low": prefers skipping
            precompute_rate_eps=1e9,
            max_unsigned_run=4,
        )
        pattern = []
        for i in range(16):
            _, token = fpga.process(i * 10_000, bytes([i]) * 32, b"\x00" * 32)
            pattern.append(token.signature is not None)
        # Never more than 3 consecutive unsigned packets.
        run = 0
        for signed in pattern:
            run = 0 if signed else run + 1
            assert run < 4

    def test_tail_drop_under_overload(self):
        fpga, _ = self.make(packet_rate_pps=1e5, max_queue_ns=us(20))
        results = [fpga.process(0, bytes([i]) * 32, b"\x00" * 32) for i in range(50)]
        assert any(r is None for r in results)

    def test_resource_report_matches_paper_table3(self):
        rows = FpgaCoprocessor.resource_report()
        by_name = {row[0]: row for row in rows}
        pipeline = by_name["Pipeline"]
        signer = by_name["Signer"]
        total = by_name["Total"]
        assert pipeline[1] == pytest.approx(0.91, abs=0.02)  # LUT %
        assert signer[1] == pytest.approx(21.0, abs=0.1)
        assert signer[4] == pytest.approx(28.52, abs=0.05)  # DSP %
        assert total[1] == pytest.approx(34.69, abs=0.1)
        assert total[2] == pytest.approx(29.22, abs=0.1)
        assert total[3] == pytest.approx(28.76, abs=0.3)
        assert total[4] == pytest.approx(29.16, abs=0.1)
