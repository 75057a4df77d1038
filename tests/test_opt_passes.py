"""Copy-propagation and DCE pass tests."""

import numpy as np
import pytest

from repro.ir import run_pipeline
from repro.ptx import (
    CmpOp,
    DType,
    KernelBuilder,
    Opcode,
    Space,
    parse_kernel,
)
from repro.regalloc import register_demand
from repro.sim import GlobalMemory, run_grid
from repro.verify import verify_kernel


def run_functional(kernel, count=32):
    sizes = {p.name: 1 << 13 for p in kernel.params}
    mem = GlobalMemory(kernel, sizes)
    run_grid(kernel, mem, grid_blocks=1)
    return mem.read_buffer("output", DType.F32, count)


def copy_chain_kernel():
    b = KernelBuilder("copies", block_size=32)
    out = b.param("output", DType.U64)
    tid = b.special("%tid.x")
    t_f = b.cvt(tid, DType.F32)
    a = b.mov(t_f)        # copy 1
    c = b.mov(a)          # copy 2 (chain)
    d = b.add(c, b.imm(1.0, DType.F32))
    dead = b.mul(d, b.imm(3.0, DType.F32))  # never used
    t64 = b.cvt(tid, DType.U64)
    addr = b.mad(t64, b.imm(4, DType.U64), b.addr_of(out), dtype=DType.U64)
    b.st(Space.GLOBAL, addr, d)
    return b.build()


class TestCopyPropagation:
    def test_uses_rewritten_through_chain(self):
        kernel = copy_chain_kernel()
        result = run_pipeline(kernel, "copy-prop")
        assert result.total_applied >= 1
        verify_kernel(result.kernel)

    def test_semantics_preserved(self):
        kernel = copy_chain_kernel()
        ref = run_functional(kernel)
        result = run_pipeline(kernel, "copy-prop")
        assert np.allclose(ref, run_functional(result.kernel))

    def test_redefinition_kills_copy(self):
        text = """
.entry k (.param .u64 output)
{
    mov.u32 %r0, %tid.x;
    mov.u32 %r1, %r0;
    mov.u32 %r0, %ntid.x;
    add.u32 %r2, %r1, %r1;
    mov.u64 %rd0, output;
    st.global.u32 [%rd0], %r2;
    exit;
}
"""
        kernel = parse_kernel(text)
        result = run_pipeline(kernel, "copy-prop")
        add = [i for i in result.kernel.instructions() if i.opcode is Opcode.ADD][0]
        # %r1 must NOT have been replaced with the redefined %r0.
        assert all(getattr(s, "name", None) != "%r0" for s in add.srcs)

    def test_guarded_mov_not_propagated(self):
        text = """
.entry k (.param .u64 output)
{
    mov.u32 %r0, %tid.x;
    setp.eq.u32 %p0, %r0, 0;
    mov.u32 %r1, %r0;
    @%p0 mov.u32 %r1, %ntid.x;
    add.u32 %r2, %r1, %r1;
    mov.u64 %rd0, output;
    st.global.u32 [%rd0], %r2;
    exit;
}
"""
        kernel = parse_kernel(text)
        ref = run_functional(kernel)
        result = run_pipeline(kernel, "copy-prop")
        assert np.allclose(ref, run_functional(result.kernel))


class TestDCE:
    def test_removes_unused_definition(self):
        kernel = copy_chain_kernel()
        before = len(kernel.instructions())
        result = run_pipeline(kernel, "dce")
        assert result.total_applied >= 1
        assert len(result.kernel.instructions()) < before
        verify_kernel(result.kernel)

    def test_removes_dead_chains(self):
        b = KernelBuilder("chain", block_size=32)
        b.param("output", DType.U64)
        a = b.mov(b.imm(1.0, DType.F32))
        c = b.add(a, a)      # feeds only the next dead value
        b.mul(c, c)          # dead
        kernel = b.build()
        result = run_pipeline(kernel, "dce")
        # Everything except exit dies transitively.
        assert len(result.kernel.instructions()) == 1

    def test_keeps_stores_and_barriers(self):
        b = KernelBuilder("side", block_size=32)
        out = b.param("output", DType.U64)
        addr = b.addr_of(out)
        b.st(Space.GLOBAL, addr, b.imm(1.0, DType.F32), dtype=DType.F32)
        b.bar()
        kernel = b.build()
        result = run_pipeline(kernel, "dce")
        opcodes = [i.opcode for i in result.kernel.instructions()]
        assert Opcode.ST in opcodes
        assert Opcode.BAR in opcodes

    def test_loop_carried_values_kept(self, loop_kernel):
        result = run_pipeline(loop_kernel, "dce")
        ref = run_functional(loop_kernel, count=16)
        assert np.allclose(ref, run_functional(result.kernel, count=16))

    def test_semantics_preserved(self):
        kernel = copy_chain_kernel()
        ref = run_functional(kernel)
        result = run_pipeline(kernel, "dce")
        assert np.allclose(ref, run_functional(result.kernel))


class TestPipeline:
    def test_fixed_point(self):
        kernel = copy_chain_kernel()
        result = run_pipeline(kernel, "copy-prop,dce")
        again = run_pipeline(result.kernel, "copy-prop,dce")
        assert again.total_applied == 0

    def test_reduces_register_demand(self):
        kernel = copy_chain_kernel()
        result = run_pipeline(kernel, "copy-prop,dce")
        assert register_demand(result.kernel) <= register_demand(kernel)

    def test_workload_kernels_survive(self):
        from repro.workloads import load_workload

        for abbr in ("HST", "GAU"):
            workload = load_workload(abbr)
            ref = run_functional(workload.kernel, count=16)
            result = run_pipeline(workload.kernel, "copy-prop,dce")
            verify_kernel(result.kernel)
            assert np.allclose(
                ref, run_functional(result.kernel, count=16), rtol=1e-5
            )
