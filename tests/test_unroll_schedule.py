"""Loop unrolling and MLP scheduling pass tests."""

import numpy as np
import pytest

from repro.ir import GreedyRewriteDriver, run_pipeline
from repro.opt import UnrollPattern
from repro.ptx import CmpOp, DType, KernelBuilder, Opcode, Space
from repro.regalloc import register_demand
from repro.sim import GlobalMemory, run_grid
from repro.verify import verify_kernel
from repro.workloads import load_workload


def counted_loop_kernel(trip=8, loads=2):
    b = KernelBuilder("k", block_size=32)
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
    for k in range(loads):
        v = b.ld(Space.GLOBAL, base, offset=4 * k, dtype=DType.F32)
        b.mad(acc, b.imm(0.9, DType.F32), v, dst=acc)
    b.add(i, b.imm(1, DType.S32), dst=i)
    b.bra(loop)
    b.place(done)
    oaddr = b.add(b.addr_of(out), off, DType.U64)
    b.st(Space.GLOBAL, oaddr, acc)
    return b.build()


def unroll(kernel, factor):
    return GreedyRewriteDriver([UnrollPattern(factor)]).run(kernel)


def schedule(kernel):
    return run_pipeline(kernel, "mlp-sched")


def run_functional(kernel):
    mem = GlobalMemory(kernel, {"input": 1 << 13, "output": 1 << 13})
    run_grid(kernel, mem, 1)
    return mem.read_buffer("output", DType.F32, 32)


class TestUnroll:
    def test_factor_divides_trip(self):
        kernel = counted_loop_kernel(trip=8)
        result = unroll(kernel, 2)
        assert result.applied == 1

    def test_non_dividing_factor_skipped(self):
        kernel = counted_loop_kernel(trip=7)
        result = unroll(kernel, 2)
        assert result.applied == 0
        assert len(result.kernel.instructions()) == len(kernel.instructions())

    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_semantics_preserved(self, factor):
        kernel = counted_loop_kernel(trip=8)
        ref = run_functional(kernel)
        result = unroll(kernel, factor)
        verify_kernel(result.kernel)
        assert np.allclose(ref, run_functional(result.kernel), rtol=1e-5)

    def test_branch_count_reduced(self):
        kernel = counted_loop_kernel(trip=8)
        unrolled = unroll(kernel, 4).kernel

        def dynamic_branches(k):
            mem = GlobalMemory(k, {"input": 1 << 13, "output": 1 << 13})
            from repro.sim import BlockExecutor
            trace = BlockExecutor(k, mem, 0, 1).run()
            return sum(
                1 for op in trace.warp_ops[0] if op.opcode is Opcode.BRA
            )

        assert dynamic_branches(unrolled) < dynamic_branches(kernel)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            unroll(counted_loop_kernel(), 1)

    def test_nested_loops_only_innermost(self):
        cfd = load_workload("CFD")  # outer x inner loops
        result = run_pipeline(cfd.kernel, "unroll")
        assert result.total_applied == 1  # the inner loop only
        ref_mem = GlobalMemory(cfd.kernel, cfd.param_sizes)
        run_grid(cfd.kernel, ref_mem, 2)
        out_mem = GlobalMemory(result.kernel, cfd.param_sizes)
        run_grid(result.kernel, out_mem, 2)
        assert np.allclose(
            ref_mem.read_buffer("output", DType.F32, 64),
            out_mem.read_buffer("output", DType.F32, 64),
            rtol=1e-5,
        )


class TestSchedule:
    def test_no_loads_is_noop(self):
        b = KernelBuilder("k", block_size=32)
        b.param("output", DType.U64)
        acc = b.mov(b.imm(1.0, DType.F32))
        for _ in range(5):
            acc = b.add(acc, acc)
        kernel = b.build()
        result = schedule(kernel)
        assert result.total_applied == 0

    def test_semantics_preserved(self):
        kernel = counted_loop_kernel(trip=8, loads=3)
        ref = run_functional(kernel)
        result = schedule(kernel)
        verify_kernel(result.kernel)
        assert np.allclose(ref, run_functional(result.kernel), rtol=1e-5)

    def test_loads_hoisted_in_unrolled_body(self):
        kernel = unroll(counted_loop_kernel(trip=8, loads=2), 4).kernel
        scheduled = schedule(kernel).kernel
        # In the scheduled loop body, all loads come before all mads.
        from repro.cfg import CFG

        cfg = CFG(scheduled)
        latch = max(cfg.blocks, key=lambda b: len(b.instructions))
        opcodes = [i.opcode for i in latch.instructions]
        first_mad = next(
            (k for k, op in enumerate(opcodes) if op is Opcode.FMA), len(opcodes)
        )
        last_load = max(
            (k for k, op in enumerate(opcodes) if op is Opcode.LD), default=-1
        )
        assert last_load < first_mad or last_load == -1

    def test_store_order_preserved(self):
        # st then ld of possibly-aliasing addresses must not swap.
        b = KernelBuilder("k", block_size=32)
        out = b.param("output", DType.U64)
        tid = b.special("%tid.x")
        t64 = b.cvt(tid, DType.U64)
        addr = b.mad(t64, b.imm(4, DType.U64), b.addr_of(out), dtype=DType.U64)
        b.st(Space.GLOBAL, addr, b.imm(5, DType.S32), dtype=DType.S32)
        v = b.ld(Space.GLOBAL, addr, dtype=DType.S32)
        v2 = b.add(v, b.imm(1, DType.S32))
        b.st(Space.GLOBAL, addr, v2, dtype=DType.S32)
        kernel = b.build()
        result = schedule(kernel)
        out_vals = run_functional(result.kernel)
        mem = GlobalMemory(result.kernel, {"output": 1 << 13})
        run_grid(result.kernel, mem, 1)
        assert np.all(mem.read_buffer("output", DType.S32, 32) == 6)

    def test_pressure_grows_with_unroll_plus_schedule(self):
        kmn = load_workload("KMN")
        base = register_demand(kmn.kernel)
        transformed = run_pipeline(kmn.kernel, "unroll,mlp-sched").kernel
        assert register_demand(transformed) > base

    def test_workload_equivalence(self):
        for abbr in ("KMN", "STM"):
            w = load_workload(abbr)
            transformed = run_pipeline(w.kernel, "unroll,mlp-sched").kernel
            verify_kernel(transformed)
            ref_mem = GlobalMemory(w.kernel, w.param_sizes)
            run_grid(w.kernel, ref_mem, 2)
            out_mem = GlobalMemory(transformed, w.param_sizes)
            run_grid(transformed, out_mem, 2)
            assert np.allclose(
                ref_mem.read_buffer("output", DType.F32, 64),
                out_mem.read_buffer("output", DType.F32, 64),
                rtol=1e-5,
            ), abbr
