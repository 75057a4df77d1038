"""SM timing-model tests (the GTO pick order is pinned by the golden
ledger, ``tools/ledger.json``)."""

import pytest

from repro.arch import FERMI
from repro.ptx import CmpOp, DType, KernelBuilder, Space
from repro.sim import simulate, simulate_traces, trace_grid


def compute_kernel(trip=32, block_size=64):
    b = KernelBuilder("compute", block_size=block_size)
    out = b.param("output", DType.U64)
    acc = b.mov(b.imm(1.0, DType.F32))
    i = b.mov(b.imm(0, DType.S32))
    loop = b.label("loop")
    done = b.label("done")
    b.place(loop)
    p = b.setp(CmpOp.GE, i, b.imm(trip, DType.S32))
    b.bra(done, guard=p)
    for _ in range(4):
        acc = b.mad(acc, b.imm(1.0001, DType.F32), b.imm(0.1, DType.F32))
    b.add(i, b.imm(1, DType.S32), dst=i)
    b.bra(loop)
    b.place(done)
    tid = b.special("%tid.x")
    t64 = b.cvt(tid, DType.U64)
    addr = b.mad(t64, b.imm(4, DType.U64), b.addr_of(out), dtype=DType.U64)
    b.st(Space.GLOBAL, addr, acc)
    return b.build()


def barrier_kernel(block_size=64):
    b = KernelBuilder("barrier", block_size=block_size)
    out = b.param("output", DType.U64)
    tile = b.shared_array("tile", block_size * 4)
    tid = b.special("%tid.x")
    t64 = b.cvt(tid, DType.U64)
    off = b.mul(t64, b.imm(4, DType.U64), DType.U64)
    taddr = b.add(b.addr_of(tile), off, DType.U64)
    b.st(Space.SHARED, taddr, tid, dtype=DType.U32)
    b.bar()
    back = b.ld(Space.SHARED, taddr, dtype=DType.U32)
    oaddr = b.add(b.addr_of(out), off, DType.U64)
    b.st(Space.GLOBAL, oaddr, back, dtype=DType.U32)
    return b.build()


class TestSMTiming:
    def test_all_instructions_issue(self):
        kernel = compute_kernel()
        result = simulate(kernel, FERMI, tlp=2, grid_blocks=4)
        traces = trace_grid(kernel, FERMI, 4)
        expected = sum(t.instruction_count for t in traces)
        assert result.instructions == expected

    def test_more_tlp_helps_compute_kernel(self):
        kernel = compute_kernel()
        traces = trace_grid(kernel, FERMI, 8)
        cycles = [simulate_traces(traces, FERMI, t).cycles for t in (1, 2, 4)]
        assert cycles[0] > cycles[1] > cycles[2]

    def test_barriers_complete(self):
        kernel = barrier_kernel()
        result = simulate(kernel, FERMI, tlp=2, grid_blocks=4)
        assert result.blocks_executed == 4
        assert result.barrier_stall_cycles >= 0

    def test_blocks_executed_matches_grid(self):
        kernel = compute_kernel()
        result = simulate(kernel, FERMI, tlp=3, grid_blocks=7)
        assert result.blocks_executed == 7

    def test_tlp_clamped_to_grid(self):
        kernel = compute_kernel()
        result = simulate(kernel, FERMI, tlp=8, grid_blocks=2)
        assert result.blocks_executed == 2

    def test_invalid_tlp(self):
        kernel = compute_kernel()
        with pytest.raises(ValueError):
            simulate(kernel, FERMI, tlp=0)

    def test_deterministic(self):
        kernel = compute_kernel()
        a = simulate(kernel, FERMI, tlp=2, grid_blocks=4)
        b = simulate(kernel, FERMI, tlp=2, grid_blocks=4)
        assert a.cycles == b.cycles
        assert a.instructions == b.instructions

    def test_ipc_bounded_by_schedulers(self):
        kernel = compute_kernel()
        result = simulate(kernel, FERMI, tlp=8, grid_blocks=16)
        assert result.ipc <= FERMI.num_schedulers

    def test_energy_attached(self):
        kernel = compute_kernel()
        result = simulate(kernel, FERMI, tlp=2, grid_blocks=2)
        assert result.energy_nj > 0

    def test_energy_scales_with_work(self):
        small = simulate(compute_kernel(trip=8), FERMI, tlp=2, grid_blocks=2)
        large = simulate(compute_kernel(trip=64), FERMI, tlp=2, grid_blocks=2)
        assert large.energy_nj > small.energy_nj
