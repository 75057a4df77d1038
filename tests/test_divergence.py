"""SIMT divergence (IPDOM reconvergence stack) tests."""

import numpy as np
import pytest

from repro.cfg import CFG, immediate_post_dominators
from repro.ptx import CmpOp, DType, KernelBuilder, Space, parse_kernel
from repro.ptx.isa import Opcode
from repro.sim import DivergentBranchError, GlobalMemory, run_grid
from repro.sim import executor

from .ledger import assert_in_ledger, ledger_gate


def run_kernel(kernel, count=None):
    count = count or kernel.block_size
    mem = GlobalMemory(kernel, {p.name: 1 << 13 for p in kernel.params})
    run_grid(kernel, mem, grid_blocks=1)
    return mem.read_buffer("output", DType.S32, count)


def store_per_thread(b, out, tid, val):
    t64 = b.cvt(tid, DType.U64)
    addr = b.mad(t64, b.imm(4, DType.U64), b.addr_of(out), dtype=DType.U64)
    b.st(Space.GLOBAL, addr, val, dtype=DType.S32)


class TestIfThen:
    def test_skipped_lanes_keep_old_value(self):
        # if (tid >= 24) val += 100;
        b = KernelBuilder("k", block_size=32)
        out = b.param("output", DType.U64)
        tid = b.special("%tid.x")
        val = b.mov(b.imm(1, DType.S32))
        p = b.setp(CmpOp.LT, tid, b.imm(24, DType.U32))
        skip = b.label("skip")
        b.bra(skip, guard=p)  # lanes < 24 jump over the then-body
        b.add(val, b.imm(100, DType.S32), dst=val)
        b.place(skip)
        store_per_thread(b, out, tid, val)
        out_vals = run_kernel(b.build())
        assert np.all(out_vals[:24] == 1)
        assert np.all(out_vals[24:] == 101)

    def test_matches_predicated_version(self):
        def build(use_branch):
            b = KernelBuilder("k", block_size=32)
            out = b.param("output", DType.U64)
            tid = b.special("%tid.x")
            val = b.mov(b.imm(5, DType.S32))
            p = b.setp(CmpOp.GE, tid, b.imm(10, DType.U32))
            if use_branch:
                skip = b.label("skip")
                b.bra(skip, guard=p, negated=True)
                b.add(val, b.imm(7, DType.S32), dst=val)
                b.place(skip)
            else:
                from repro.ptx import Instruction, Opcode

                b.emit(
                    Instruction(
                        Opcode.ADD,
                        dtype=DType.S32,
                        dst=val,
                        srcs=(val, b.imm(7, DType.S32)),
                        guard=p,
                    )
                )
            store_per_thread(b, out, tid, val)
            return b.build()

        assert np.array_equal(run_kernel(build(True)), run_kernel(build(False)))


class TestIfElse:
    def _diamond(self, threshold=16):
        b = KernelBuilder("k", block_size=32)
        out = b.param("output", DType.U64)
        tid = b.special("%tid.x")
        val = b.mov(b.imm(0, DType.S32))
        p = b.setp(CmpOp.LT, tid, b.imm(threshold, DType.U32))
        then = b.label("then")
        join = b.label("join")
        b.bra(then, guard=p)
        b.mov_to(val, b.imm(30, DType.S32))  # else path
        b.bra(join)
        b.place(then)
        b.mov_to(val, b.imm(70, DType.S32))  # then path
        b.place(join)
        b.add(val, b.imm(1, DType.S32), dst=val)  # post-join, all lanes
        store_per_thread(b, out, tid, val)
        return b.build()

    def test_both_paths_execute(self):
        out_vals = run_kernel(self._diamond())
        assert np.all(out_vals[:16] == 71)
        assert np.all(out_vals[16:] == 31)

    @pytest.mark.parametrize("threshold", [1, 8, 31])
    def test_any_split(self, threshold):
        out_vals = run_kernel(self._diamond(threshold))
        assert np.all(out_vals[:threshold] == 71)
        assert np.all(out_vals[threshold:] == 31)


class TestNested:
    def test_nested_divergence(self):
        # if (tid < 16) { if (tid < 8) v=1; else v=2; } else v=3;
        text = """
.entry k (.param .u64 output)
{
    mov.u32 %r0, %tid.x;
    mov.s32 %r1, 0;
    setp.lt.u32 %p0, %r0, 16;
    @%p0 bra $outer_then;
    mov.s32 %r1, 3;
    bra $outer_join;
$outer_then:
    setp.lt.u32 %p1, %r0, 8;
    @%p1 bra $inner_then;
    mov.s32 %r1, 2;
    bra $inner_join;
$inner_then:
    mov.s32 %r1, 1;
$inner_join:
$outer_join:
    cvt.u64 %rd0, %r0;
    mov.u64 %rd1, output;
    mad.lo.u64 %rd2, %rd0, 4, %rd1;
    st.global.s32 [%rd2], %r1;
    exit;
}
"""
        out_vals = run_kernel(parse_kernel(text))
        assert np.all(out_vals[:8] == 1)
        assert np.all(out_vals[8:16] == 2)
        assert np.all(out_vals[16:] == 3)


class TestDivergenceInsideLoop:
    def test_uniform_loop_with_divergent_body(self):
        # for i in range(4): if (tid < 16) v += 2 else v += 5
        b = KernelBuilder("k", block_size=32)
        out = b.param("output", DType.U64)
        tid = b.special("%tid.x")
        val = b.mov(b.imm(0, DType.S32))
        i = b.mov(b.imm(0, DType.S32))
        loop = b.label("loop")
        done = b.label("done")
        b.place(loop)
        ploop = b.setp(CmpOp.GE, i, b.imm(4, DType.S32))
        b.bra(done, guard=ploop)
        p = b.setp(CmpOp.LT, tid, b.imm(16, DType.U32))
        then = b.label(f"then")
        join = b.label(f"join")
        b.bra(then, guard=p)
        b.add(val, b.imm(5, DType.S32), dst=val)
        b.bra(join)
        b.place(then)
        b.add(val, b.imm(2, DType.S32), dst=val)
        b.place(join)
        b.add(i, b.imm(1, DType.S32), dst=i)
        b.bra(loop)
        b.place(done)
        store_per_thread(b, out, tid, val)
        out_vals = run_kernel(b.build())
        assert np.all(out_vals[:16] == 8)
        assert np.all(out_vals[16:] == 20)


class TestDivergentMemory:
    def test_divergent_loads_and_stores(self):
        # Only even lanes load+store through the divergent path.
        b = KernelBuilder("k", block_size=32)
        inp = b.param("input", DType.U64)
        out = b.param("output", DType.U64)
        tid = b.special("%tid.x")
        even = b.and_(tid, b.imm(1, DType.U32))
        p = b.setp(CmpOp.EQ, even, b.imm(0, DType.U32))
        val = b.mov(b.imm(-1, DType.S32))
        skip = b.label("skip")
        b.bra(skip, guard=p, negated=True)
        t64 = b.cvt(tid, DType.U64)
        iaddr = b.mad(t64, b.imm(4, DType.U64), b.addr_of(inp), dtype=DType.U64)
        loaded = b.ld(Space.GLOBAL, iaddr, dtype=DType.S32)
        b.mov_to(val, loaded)
        b.place(skip)
        store_per_thread(b, out, tid, val)
        kernel = b.build()
        mem = GlobalMemory(kernel, {"input": 4096, "output": 4096})
        mem.write_buffer("input", np.arange(100, 132, dtype=np.int32))
        run_grid(kernel, mem, 1)
        out_vals = mem.read_buffer("output", DType.S32, 32)
        lanes = np.arange(32)
        assert np.all(out_vals[lanes % 2 == 0] == (100 + lanes)[lanes % 2 == 0])
        assert np.all(out_vals[lanes % 2 == 1] == -1)

    def test_divergent_path_records_partial_warp_ops(self):
        from repro.ptx.isa import LatencyClass, Space as Sp
        from repro.sim import BlockExecutor

        b = KernelBuilder("k", block_size=32)
        inp = b.param("input", DType.U64)
        b.param("output", DType.U64)
        tid = b.special("%tid.x")
        p = b.setp(CmpOp.LT, tid, b.imm(4, DType.U32))
        skip = b.label("skip")
        b.bra(skip, guard=p, negated=True)
        t64 = b.cvt(tid, DType.U64)
        iaddr = b.mad(t64, b.imm(4, DType.U64), b.addr_of(inp), dtype=DType.U64)
        b.ld(Space.GLOBAL, iaddr, dtype=DType.S32)
        b.place(skip)
        kernel = b.build()
        mem = GlobalMemory(kernel, {"input": 4096, "output": 4096})
        trace = BlockExecutor(kernel, mem, 0, 1).run()
        loads = [
            op for op in trace.warp_ops[0]
            if op.kind is LatencyClass.MEM and op.space is Sp.GLOBAL
        ]
        # Four active lanes, contiguous words: exactly one line touched.
        assert len(loads) == 1
        assert len(loads[0].lines) == 1
        assert loads[0].bytes == 4 * 4


class TestLimits:
    def test_barrier_in_divergent_region_rejected(self):
        b = KernelBuilder("k", block_size=32)
        b.param("output", DType.U64)
        tid = b.special("%tid.x")
        p = b.setp(CmpOp.LT, tid, b.imm(16, DType.U32))
        skip = b.label("skip")
        b.bra(skip, guard=p)
        b.bar()
        b.place(skip)
        with pytest.raises(DivergentBranchError, match="barrier"):
            run_kernel(b.build())


BLOCK_KERNELS = {k.name: k for k in ledger_gate.block_dependent_kernels()}
GRID = ledger_gate.BLOCK_DEPENDENT_GRID
THREADS = 64  # block size of every kernel in tools/block_dependent.ptx


def run_block_dependent(name):
    """Trace a ``%ctaid``-dependent kernel, check its trace and output
    buffer against the ledger, and return (traces, input, output) with
    the buffers as u32 words."""
    traces, mem = ledger_gate.block_dependent_case(BLOCK_KERNELS[name])
    assert_in_ledger(
        "traces", ledger_gate.trace_key(name, GRID),
        ledger_gate.trace_entry(traces, ledger_gate.block_dependent_output(mem)),
    )
    words = ledger_gate.BLOCK_DEPENDENT_PARAM_BYTES // 4
    inp = None
    if "input" in mem.param_base:
        inp = mem.read_buffer("input", DType.U32, words)
    return traces, inp, mem.read_buffer("output", DType.U32, GRID * THREADS)


def gtid_of(block):
    return block * THREADS + np.arange(THREADS)


class TestBlockDependentControlFlow:
    """Blocks of one grid that take a branch differently: the lockstep
    executor splits them, and each trace and output buffer must equal
    the ledger's, recorded running the blocks one by one."""

    def test_forward_branch_on_ctaid_parity(self):
        traces, inp, out = run_block_dependent("ctaid_parity")
        for block in range(GRID):
            gtid = gtid_of(block)
            if block % 2 == 0:
                expected = inp[gtid] * np.uint32(3)
            else:
                expected = inp[gtid * 8] + np.uint32(1000)
            assert np.array_equal(out[gtid], expected)
        # Odd blocks load with a 32-byte stride: four lanes per line.
        lines = [
            max(len(op.lines) for op in trace.warp_ops[0]) for trace in traces
        ]
        assert lines == [1, 8] * (GRID // 2)

    def test_trip_count_ctaid_plus_one(self):
        traces, inp, out = run_block_dependent("ctaid_trip")
        for block in range(GRID):
            gtid = gtid_of(block)
            expected = sum(inp[gtid + 256 * i] for i in range(block + 1))
            assert np.array_equal(out[gtid], expected)
        counts = [trace.instruction_count for trace in traces]
        assert counts == sorted(set(counts))  # one more trip per block

    def test_barrier_in_region_only_some_blocks_enter(self):
        traces, _, out = run_block_dependent("ctaid_bar")
        for block in range(GRID):
            gtid = gtid_of(block)
            swapped = gtid ^ 1 if block < 3 else gtid
            assert np.array_equal(out[gtid], swapped)
            barriers = sum(
                op.opcode is Opcode.BAR for op in traces[block].warp_ops[0]
            )
            assert barriers == (1 if block < 3 else 0)
        # tile[tid * 2]: two distinct words per bank within a warp.
        shared = [
            op.conflict for op in traces[0].warp_ops[0]
            if op.space is Space.SHARED
        ]
        assert shared == [2, 2]

    def test_lane_divergence_inside_block_dependent_region(self):
        traces, inp, out = run_block_dependent("ctaid_nested")
        for block in range(GRID):
            gtid = gtid_of(block)
            if block % 3:
                expected = np.full(THREADS, 3, dtype=np.uint32)
            else:
                expected = np.where(np.arange(THREADS) < 40, 1, inp[gtid * 2])
            assert np.array_equal(out[gtid], expected)
        # Warp 1 of an entering block loads under a partial mask
        # (tids 40..63); warp 0 issues it predicated off.
        loads = [
            op for op in traces[0].warp_ops[1] if op.opcode is Opcode.LD
        ]
        assert [op.bytes for op in loads] == [24 * 4]

    def test_block_dependent_branch_inside_lane_divergence(self):
        _, inp, out = run_block_dependent("ctaid_in_divergent")
        for block in range(GRID):
            gtid = gtid_of(block)
            tail = gtid + 500 if block % 2 == 0 else inp[gtid]
            expected = np.where(np.arange(THREADS) < 24, 7, tail)
            assert np.array_equal(out[gtid], expected)


def _failing_kernel(loop_block, bar_block):
    """Even blocks split from odd ones first.  Then block ``loop_block``
    (even) alone runs a loop whose exit differs per lane, a divergent
    backward branch, and block ``bar_block`` (odd) alone reaches a
    barrier under lane divergence."""
    return parse_kernel(f"""
.entry two_failures ()
.maxntid 64, 1, 1
{{
    mov.u32 %r0, %tid.x;
    mov.u32 %r1, %ctaid.x;
    and.b32 %r2, %r1, 1;
    setp.eq.u32 %p0, %r2, 1;
    @%p0 bra $odd;
    mov.u32 %r3, 1;
    setp.eq.u32 %p1, %r1, {loop_block};
    @%p1 rem.u32 %r3, %r0, 2;
    mov.u32 %r4, 0;
$loop:
    add.u32 %r4, %r4, 1;
    setp.le.u32 %p2, %r4, %r3;
    @%p2 bra $loop;
    bra $done;
$odd:
    setp.eq.u32 %p3, %r1, {bar_block};
    @%p3 bra $bar_block;
    bra $done;
$bar_block:
    setp.lt.u32 %p4, %r0, 16;
    @%p4 bra $done;
    bar 0;
$done:
    ret;
}}
""")


class TestBlockDependentLimits:
    """Every divergence check keeps its per-block meaning when blocks
    run in lockstep, and the lowest failing block's error wins, as it
    would running the blocks one by one."""

    def _run(self, grid, loop_block=2, bar_block=1):
        kernel = _failing_kernel(loop_block, bar_block)
        run_grid(kernel, GlobalMemory(kernel), grid)

    def test_blocks_that_do_not_diverge_run(self):
        self._run(1)

    def test_divergent_backward_branch_in_one_block(self):
        with pytest.raises(DivergentBranchError, match="backward"):
            self._run(4, bar_block=99)

    def test_barrier_under_divergence_in_one_block(self):
        with pytest.raises(DivergentBranchError, match="barrier"):
            self._run(4, loop_block=98)

    def test_lowest_failing_block_wins(self):
        # Blocks 0 and 2 run first and block 2 fails, but block 1 is the
        # lowest failing block.
        with pytest.raises(DivergentBranchError, match="barrier"):
            self._run(4)
        with pytest.raises(DivergentBranchError, match="backward"):
            self._run(4, loop_block=0)


def _budget_kernel(trips, block3_trips):
    """A uniform loop of ``trips`` iterations (``block3_trips`` in block
    3): 3 instructions per trip plus 6 around the loop."""
    return parse_kernel(f"""
.entry budget ()
.maxntid 64, 1, 1
{{
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, {trips};
    setp.eq.u32 %p0, %r1, 3;
    @%p0 mov.u32 %r2, {block3_trips};
    mov.u32 %r4, 0;
$loop:
    add.u32 %r4, %r4, 1;
    setp.lt.u32 %p1, %r4, %r2;
    @%p1 bra $loop;
    ret;
}}
""")


class TestInstructionBudget:
    BUDGET = 200

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(
            executor, "_MAX_DYNAMIC_INSTRUCTIONS", self.BUDGET
        )

    def _trace(self, kernel, grid):
        return run_grid(kernel, GlobalMemory(kernel), grid)

    def test_one_block_past_the_budget_raises(self):
        kernel = _budget_kernel(trips=2, block3_trips=100)
        self._trace(kernel, 3)  # blocks 0-2 stay far below it
        with pytest.raises(RuntimeError, match="dynamic instruction budget"):
            self._trace(kernel, 6)

    def test_budget_counts_per_block_not_per_group(self):
        kernel = _budget_kernel(trips=60, block3_trips=60)
        traces = self._trace(kernel, 6)
        per_block = [t.instruction_count // t.num_warps for t in traces]
        # Each block issues 3 * 60 + 5 instructions (ret is not traced).
        assert per_block == [185] * 6
        assert sum(per_block) > self.BUDGET


class TestIPDomHelper:
    def test_straightline_has_no_ipdom_entries_for_nonbranches(self):
        text = """
.entry k ()
{
    mov.u32 %r0, %tid.x;
    exit;
}
"""
        cfg = CFG(parse_kernel(text))
        ipdom = immediate_post_dominators(cfg)
        assert ipdom == {0: None}
