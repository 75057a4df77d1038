"""Static cache-bypassing pass and simulator-path tests."""

import numpy as np
import pytest

from repro.arch import FERMI
from repro.ir import run_pipeline
from repro.ptx import CmpOp, DType, KernelBuilder, Opcode, Space, parse_kernel, print_kernel
from repro.sim import GlobalMemory, run_grid, simulate
from repro.workloads import load_workload


def bypass(kernel):
    return run_pipeline(kernel, "bypass")


def streaming_kernel(stream_loads=2, reuse_loads=1, trip=8):
    b = KernelBuilder("stream", block_size=64)
    inp = b.param("input", DType.U64)
    out = b.param("output", DType.U64)
    tid = b.special("%tid.x")
    t64 = b.cvt(tid, DType.U64)
    off = b.mul(t64, b.imm(4, DType.U64), DType.U64)
    fixed = b.add(b.addr_of(inp), off, DType.U64)  # reused address
    ptr = b.add(fixed, b.imm(4096, DType.U64), DType.U64)  # streaming
    acc = b.mov(b.imm(0.0, DType.F32))
    i = b.mov(b.imm(0, DType.S32))
    loop = b.label("loop")
    done = b.label("done")
    b.place(loop)
    p = b.setp(CmpOp.GE, i, b.imm(trip, DType.S32))
    b.bra(done, guard=p)
    for k in range(reuse_loads):
        acc = b.add(acc, b.ld(Space.GLOBAL, fixed, offset=4 * k, dtype=DType.F32))
    for s in range(stream_loads):
        acc = b.add(acc, b.ld(Space.GLOBAL, ptr, offset=4 * s, dtype=DType.F32))
    b.add(ptr, b.imm(1024, DType.U64), DType.U64, dst=ptr)
    b.add(i, b.imm(1, DType.S32), dst=i)
    b.bra(loop)
    b.place(done)
    oaddr = b.add(b.addr_of(out), off, DType.U64)
    b.st(Space.GLOBAL, oaddr, acc)
    return b.build()


class TestDetection:
    def test_streaming_loads_marked(self):
        kernel = streaming_kernel(stream_loads=2, reuse_loads=1)
        result = bypass(kernel)
        assert result.total_applied == 2
        cg = [
            i for i in result.kernel.instructions()
            if i.opcode is Opcode.LD and i.cache_op == "cg"
        ]
        assert len(cg) == 2

    def test_reused_loads_untouched(self):
        kernel = streaming_kernel(stream_loads=0, reuse_loads=2)
        result = bypass(kernel)
        assert result.total_applied == 0

    def test_workload_pattern(self):
        lbm = load_workload("LBM")
        kmn = load_workload("KMN")
        assert bypass(lbm.kernel).total_applied > 0
        assert bypass(kmn.kernel).total_applied == 0

    def test_idempotent(self):
        kernel = streaming_kernel()
        once = bypass(kernel)
        twice = bypass(once.kernel)
        assert twice.total_applied == 0


class TestRoundTrip:
    def test_cg_survives_print_parse(self):
        kernel = bypass(streaming_kernel()).kernel
        text = print_kernel(kernel)
        assert ".cg." in text
        again = parse_kernel(text)
        assert print_kernel(again) == text


class TestSimulation:
    def test_semantics_unchanged(self):
        kernel = streaming_kernel()
        bypassed = bypass(kernel).kernel
        sizes = {"input": 1 << 16, "output": 1 << 16}

        def run(k):
            mem = GlobalMemory(k, sizes)
            run_grid(k, mem, 2)
            return mem.read_buffer("output", DType.F32, 64)

        assert np.allclose(run(kernel), run(bypassed))

    def test_bypassed_counter_and_l1_relief(self):
        kernel = streaming_kernel(stream_loads=4, reuse_loads=2, trip=16)
        bypassed = bypass(kernel).kernel
        sizes = {"input": 1 << 20, "output": 1 << 20}
        base = simulate(kernel, FERMI, tlp=4, grid_blocks=8, param_sizes=sizes)
        with_bypass = simulate(bypassed, FERMI, tlp=4, grid_blocks=8,
                               param_sizes=sizes)
        assert base.bypassed_insts == 0
        assert with_bypass.bypassed_insts > 0
        # Bypassed streams stop polluting the L1: fewer L1 accesses and
        # a hit rate at least as good.
        assert with_bypass.l1.accesses < base.l1.accesses
        assert with_bypass.l1_hit_rate >= base.l1_hit_rate - 0.02
