"""Static analysis tests: segmentation and the GTO mimic."""

import pytest

from repro.analysis import (
    Segment,
    estimate_opt_tlp,
    segment_kernel,
    total_cycles,
    total_mem_requests,
)
from repro.arch import FERMI
from repro.ptx import CmpOp, DType, KernelBuilder, Space


def mixed_kernel(loads=4, alu=8, trip=8):
    b = KernelBuilder("mixed", block_size=128)
    inp = b.param("input", DType.U64)
    out = b.param("output", DType.U64)
    tid = b.special("%tid.x")
    t64 = b.cvt(tid, DType.U64)
    off = b.mul(t64, b.imm(4, DType.U64), DType.U64)
    base = b.add(b.addr_of(inp), off, DType.U64)
    acc = b.mov(b.imm(0.0, DType.F32))
    i = b.mov(b.imm(0, DType.S32))
    loop = b.label("loop")
    done = b.label("done")
    b.place(loop)
    p = b.setp(CmpOp.GE, i, b.imm(trip, DType.S32))
    b.bra(done, guard=p)
    vals = [b.ld(Space.GLOBAL, base, offset=4 * k, dtype=DType.F32) for k in range(loads)]
    for v in vals:
        acc = b.add(acc, v)
    for _ in range(alu):
        acc = b.mad(acc, b.imm(1.01, DType.F32), b.imm(0.1, DType.F32))
    b.add(i, b.imm(1, DType.S32), dst=i)
    b.bra(loop)
    b.place(done)
    oaddr = b.add(b.addr_of(out), off, DType.U64)
    b.st(Space.GLOBAL, oaddr, acc)
    return b.build()


class TestSegmentation:
    def test_alternating_kinds_within_weight(self):
        segments = segment_kernel(mixed_kernel(), FERMI)
        # Same-kind neighbours only appear across loop-weight boundaries.
        for a, b_ in zip(segments, segments[1:]):
            if a.weight == b_.weight:
                assert a.kind != b_.kind
        kinds = {s.kind for s in segments}
        assert kinds == {"compute", "memory"}

    def test_memory_requests_counted(self):
        segments = segment_kernel(mixed_kernel(loads=4, trip=8), FERMI)
        # 4 loads per iteration weighted by the trip estimate + 1 store.
        assert total_mem_requests(segments) >= 4 * 8

    def test_loop_weight_scales_work(self):
        light = total_cycles(segment_kernel(mixed_kernel(trip=8), FERMI, trip_count=8))
        heavy = total_cycles(segment_kernel(mixed_kernel(trip=8), FERMI, trip_count=32))
        assert heavy > light * 2

    def test_compute_only_kernel_single_kind(self):
        b = KernelBuilder("pure", block_size=32)
        b.param("output", DType.U64)
        acc = b.mov(b.imm(1.0, DType.F32))
        for _ in range(10):
            acc = b.add(acc, acc)
        kernel = b.build()
        segments = segment_kernel(kernel, FERMI)
        assert all(s.kind == "compute" for s in segments)

    def test_shared_memory_counts_as_compute(self):
        b = KernelBuilder("shm", block_size=32)
        b.param("output", DType.U64)
        tile = b.shared_array("tile", 128)
        addr = b.addr_of(tile)
        b.st(Space.SHARED, addr, b.imm(1.0, DType.F32), dtype=DType.F32)
        v = b.ld(Space.SHARED, addr, dtype=DType.F32)
        kernel = b.build()
        segments = segment_kernel(kernel, FERMI)
        assert total_mem_requests(segments) == 0  # on-chip, not "memory"


class TestGTOEstimate:
    def test_bandwidth_bound_kernel_saturates_below_ceiling(self):
        # A heavily memory-bound kernel saturates the modeled DRAM
        # channel: adding blocks past the saturation point buys nothing,
        # so the estimate stays below the ceiling, while a kernel with
        # compute to overlap keeps benefiting from more blocks.
        memory_heavy = mixed_kernel(loads=8, alu=1)
        compute_heavy = mixed_kernel(loads=1, alu=24)
        est_mem = estimate_opt_tlp(memory_heavy, FERMI, max_tlp=8)
        est_cmp = estimate_opt_tlp(compute_heavy, FERMI, max_tlp=8)
        assert est_mem.opt_tlp < 8
        assert 1 <= est_cmp.opt_tlp <= 8

    def test_bounded_by_max_tlp(self):
        est = estimate_opt_tlp(mixed_kernel(loads=8, alu=1), FERMI, max_tlp=3)
        assert 1 <= est.opt_tlp <= 3

    def test_invalid_max_tlp(self):
        with pytest.raises(ValueError):
            estimate_opt_tlp(mixed_kernel(), FERMI, max_tlp=0)

    def test_pure_compute_needs_few_blocks(self):
        b = KernelBuilder("pure", block_size=128)
        b.param("output", DType.U64)
        acc = b.mov(b.imm(1.0, DType.F32))
        for _ in range(64):
            acc = b.mad(acc, b.imm(1.01, DType.F32), b.imm(0.1, DType.F32))
        est = estimate_opt_tlp(b.build(), FERMI, max_tlp=8)
        assert est.opt_tlp <= 2

    def test_lower_hit_ratio_raises_estimate(self):
        kernel = mixed_kernel(loads=4, alu=6)
        high = estimate_opt_tlp(kernel, FERMI, 8, hit_ratio=0.95)
        low = estimate_opt_tlp(kernel, FERMI, 8, hit_ratio=0.1)
        assert low.opt_tlp >= high.opt_tlp

    def test_deterministic(self):
        kernel = mixed_kernel()
        a = estimate_opt_tlp(kernel, FERMI, 8)
        b_ = estimate_opt_tlp(kernel, FERMI, 8)
        assert a.opt_tlp == b_.opt_tlp
        assert a.first_block_finish == b_.first_block_finish
