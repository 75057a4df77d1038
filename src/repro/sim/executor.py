"""Functional SIMT execution of PTX-subset kernels.

The blocks of a grid execute in lockstep: one executor holds the lanes
of many blocks as numpy arrays of ``blocks x block_size`` lanes.  Lanes
of a block may diverge at forward branches (an IPDOM reconvergence
stack); the workload generator uses predication for other lane-divergent
behaviour, as GPU compilers do for short conditionals.  Blocks that take
a branch differently split into groups that continue on their own.
Execution produces:

* **functional effects** — real values flow through registers and
  memory, so tests can compare an allocated/spilled kernel's output
  against the original bit-for-bit;
* **a timing trace** — per warp, a list of :class:`WarpOp` carrying the
  dependency names and, for memory operations, the coalesced cache-line
  addresses that drive the cache/DRAM model.  Ops are interned: equal
  ops of one program position are one shared object.

Local-memory addresses are interleaved across threads the way hardware
does it (word ``w`` of thread ``t`` sits at ``w * nthreads + t``), so
same-slot spill accesses from a warp coalesce into few transactions —
this is what makes spill traffic cache-able and is essential to the
paper's ``Cost_local`` behaviour.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ptx.instruction import Imm, Instruction, Label, Reg, Sreg, Sym
from ..ptx.isa import CmpOp, DType, LatencyClass, Opcode, Space
from ..ptx.module import Kernel
from .memory import BlockMemory, GlobalMemory
from .values import LOCAL_BASE, cast_lanes, np_dtype

#: Physical base for interleaved local-memory storage (cache addressing).
LOCAL_PHYS_BASE = 0x8000_0000

_MAX_DYNAMIC_INSTRUCTIONS = 2_000_000

#: Most lanes one lockstep group of blocks holds.  Every suite and
#: benchmark grid fits in one group (the widest, FDTD, has 16 x 512 =
#: 8,192 lanes), and a wide ``repro simulate --grid N`` still keeps its
#: register state bounded.
_MAX_GROUP_LANES = 16_384

# How one block takes a branch: all, none or some of its active lanes.
_TAKEN, _NOT_TAKEN, _DIVERGENT = 0, 1, 2


class DivergentBranchError(RuntimeError):
    """A branch guard was not uniform across the block."""


@dataclasses.dataclass(frozen=True)
class WarpOp:
    """One dynamic instruction of one warp, ready for the timing model.

    ``lines`` holds the coalesced cache-line addresses for global/local
    accesses (empty for everything else); ``conflict`` is the shared
    memory bank-serialization factor (1 = conflict-free).
    """

    kind: LatencyClass
    opcode: Opcode
    dst: Optional[str]
    srcs: Tuple[str, ...]
    space: Optional[Space] = None
    is_store: bool = False
    lines: Tuple[int, ...] = ()
    bytes: int = 0
    conflict: int = 1
    #: ld.global.cg: skip the L1, service from the L2 directly.
    bypass_l1: bool = False


@dataclasses.dataclass
class BlockTrace:
    """The execution trace of one thread block, split per warp."""

    block_id: int
    block_size: int
    warp_ops: List[List[WarpOp]]
    instruction_count: int

    @property
    def num_warps(self) -> int:
        return len(self.warp_ops)


@dataclasses.dataclass
class _Group:
    """Blocks that have taken every branch the same way so far.

    ``blocks`` are ascending indices into the executor's blocks; every
    lane array holds ``len(blocks) * block_size`` lanes, block-major.
    """

    blocks: np.ndarray
    pc: int
    executed: int
    #: SIMT stack: ``[join_pos, other_pc, other_mask, saved_mask, pending]``.
    stack: List[list]
    regs: Dict[str, np.ndarray]
    active: np.ndarray
    mem: BlockMemory


class BlockExecutor:
    """Executes blocks ``block_id .. block_id + num_blocks - 1`` of a
    grid functionally, in lockstep, and collects their traces."""

    def __init__(
        self,
        kernel: Kernel,
        global_mem: GlobalMemory,
        block_id: int,
        grid_blocks: int,
        warp_size: int = 32,
        line_bytes: int = 128,
        shared_banks: int = 32,
        num_blocks: int = 1,
    ):
        self.kernel = kernel
        self.global_mem = global_mem
        self.block_id = block_id
        self.grid_blocks = grid_blocks
        self.num_blocks = num_blocks
        self.warp_size = warp_size
        self.line_bytes = line_bytes
        self.shared_banks = shared_banks
        self.block_size = kernel.block_size
        if self.block_size % warp_size != 0:
            raise ValueError("block size must be a multiple of the warp size")
        self.num_warps = self.block_size // warp_size
        self.block_mem = BlockMemory(kernel, self.block_size, num_blocks)
        self.regs: Dict[str, np.ndarray] = {}
        self._lane = np.arange(self.block_size)
        self._total_threads = grid_blocks * self.block_size
        # Flattened program: instructions plus a label index.
        self._program: List[Instruction] = []
        self._label_index: Dict[str, int] = {}
        for item in kernel.body:
            if isinstance(item, Label):
                self._label_index[item.name] = len(self._program)
            else:
                self._program.append(item)
        # SIMT divergence: the reconvergence (immediate post-dominator)
        # position of every branch, computed lazily on first divergence.
        self._join_of: Optional[Dict[int, Optional[int]]] = None
        # Interned ops: one per program position for non-memory ops and
        # fully predicated-off warps, one per (position, lines, active
        # lanes, conflict) for memory ops.
        self._simple_ops: Dict[int, WarpOp] = {}
        self._off_ops: Dict[int, WarpOp] = {}
        self._mem_ops: Dict[tuple, WarpOp] = {}

    def _reconvergence_points(self) -> Dict[int, Optional[int]]:
        """Map each branch's program position to its IPDOM position."""
        from ..cfg.dominators import immediate_post_dominators
        from ..cfg.graph import CFG

        cfg = CFG(self.kernel)
        ipdom = immediate_post_dominators(cfg)
        joins: Dict[int, Optional[int]] = {}
        for block in cfg.blocks:
            target = ipdom.get(block.index)
            join_pos = cfg.blocks[target].start if target is not None else None
            for pos, inst in block.positions():
                if inst.is_branch:
                    joins[pos] = join_pos
        return joins

    # ------------------------------------------------------------------
    def run(self) -> BlockTrace:
        """Execute a one-block executor; returns the block's trace."""
        trace, = self.run_blocks()
        return trace

    def run_blocks(self) -> List[BlockTrace]:
        """Execute every block to completion; returns their traces in
        block order.

        Divergent *forward* branches are handled with the standard
        SIMT/IPDOM reconvergence stack: the fall-through path runs
        first under the not-taken mask, then the taken path, and the
        full mask is restored at the branch's immediate post-dominator.
        Divergent backward branches (data-dependent trip counts across
        a block) are out of the modeled subset and raise
        :class:`DivergentBranchError`.

        Each branch is classified per block (all, none or some active
        lanes take it).  While the blocks of a group agree they run as
        one; when they disagree the group splits into one sub-group per
        outcome, with sliced state, and each resumes at the branch.
        Every check keeps its per-block meaning, the dynamic-instruction
        budget included, and when several blocks fail the lowest one's
        error is raised, as running the blocks one by one would.
        """
        self._warp_ops: List[List[List[WarpOp]]] = [
            [[] for _ in range(self.num_warps)]
            for _ in range(self.num_blocks)
        ]
        pending = [_Group(
            blocks=np.arange(self.num_blocks),
            pc=0,
            executed=0,
            stack=[],
            regs={},
            active=np.ones(self.num_blocks * self.block_size, dtype=bool),
            mem=self.block_mem,
        )]
        # The modeled-subset checks raise RuntimeError; hold the lowest
        # failing block's until every lower block has run.
        failure: Optional[Tuple[int, RuntimeError]] = None
        while pending:
            group = pending.pop()
            first = int(group.blocks[0])
            if failure is not None and first > failure[0]:
                continue  # a lower block has already failed
            try:
                pending.extend(reversed(self._run_group(group)))
            except RuntimeError as err:
                failure = (first, err)
        if failure is not None:
            raise failure[1]
        return [
            BlockTrace(
                block_id=self.block_id + index,
                block_size=self.block_size,
                warp_ops=warp_ops,
                instruction_count=sum(len(ops) for ops in warp_ops),
            )
            for index, warp_ops in enumerate(self._warp_ops)
        ]

    def _enter(self, group: _Group) -> None:
        """Make ``group`` the one the instruction semantics act on."""
        self.regs = group.regs
        self._active = group.active
        self.block_mem = group.mem
        blocks = len(group.blocks)
        self._nlanes = blocks * self.block_size
        self._tid = np.tile(self._lane, blocks)
        self._ctaid = np.repeat(self.block_id + group.blocks, self.block_size)
        self._gtid = self._ctaid * self.block_size + self._tid
        self._appends = [
            ops.append
            for block in group.blocks for ops in self._warp_ops[block]
        ]

    def _run_group(self, group: _Group) -> List[_Group]:
        """Run ``group`` until its blocks exit (returns ``[]``) or take a
        branch differently (returns the sub-groups, in block order)."""
        self._enter(group)
        pc, executed, simt_stack = group.pc, group.executed, group.stack
        program = self._program
        n = len(program)
        while pc < n:
            # Reconvergence: switch to the pending path or restore.
            while simt_stack and pc == simt_stack[-1][0]:
                entry = simt_stack[-1]
                if entry[4]:
                    entry[4] = False
                    self._active = entry[2]
                    pc = entry[1]
                else:
                    self._active = entry[3]
                    simt_stack.pop()
            if pc >= n:
                break
            executed += 1
            if executed > _MAX_DYNAMIC_INSTRUCTIONS:
                raise RuntimeError(
                    f"kernel {self.kernel.name} exceeded the dynamic "
                    f"instruction budget ({_MAX_DYNAMIC_INSTRUCTIONS})"
                )
            inst = program[pc]
            opcode = inst.opcode
            if opcode in (Opcode.RET, Opcode.EXIT):
                if simt_stack:
                    raise DivergentBranchError(
                        f"kernel {self.kernel.name}: exit inside a divergent "
                        "region is outside the modeled subset"
                    )
                break
            mask = self._guard_mask(inst)
            if opcode is Opcode.BRA:
                outcomes = self._branch_outcomes(mask)
                if (outcomes != outcomes[0]).any():
                    # Each sub-group issues this branch itself.
                    group.pc, group.executed = pc, executed - 1
                    group.active = self._active
                    return self._split(group, outcomes)
                pc = self._branch(inst, outcomes[0], mask, pc, simt_stack)
                continue
            if opcode is Opcode.BAR:
                if simt_stack:
                    raise DivergentBranchError(
                        f"kernel {self.kernel.name}: barrier inside a "
                        "divergent region would deadlock"
                    )
                self._record_simple(pc, inst)
                pc += 1
                continue
            if opcode is Opcode.LD:
                self._exec_load(pc, inst, mask)
            elif opcode is Opcode.ST:
                self._exec_store(pc, inst, mask)
            else:
                self._exec_compute(inst, mask)
                self._record_simple(pc, inst)
            pc += 1
        return []

    def _branch_outcomes(self, taken: np.ndarray) -> np.ndarray:
        """Per block of the group: ``_TAKEN``, ``_NOT_TAKEN`` or
        ``_DIVERGENT`` (the guard mask is already restricted to active
        lanes)."""
        n_taken = taken.reshape(-1, self.block_size).sum(axis=1)
        n_active = self._active.reshape(-1, self.block_size).sum(axis=1)
        return np.where(
            n_taken == n_active,
            _TAKEN,
            np.where(n_taken == 0, _NOT_TAKEN, _DIVERGENT),
        )

    def _branch(self, inst, outcome, taken, pc, simt_stack) -> int:
        """Execute one branch the group's blocks agree on; returns the
        next pc."""
        self._record_simple(pc, inst)
        target = self._label_index[inst.target]
        if outcome == _TAKEN:
            return target
        if outcome == _NOT_TAKEN:
            return pc + 1
        # Divergence.
        if target <= pc:
            raise DivergentBranchError(
                f"kernel {self.kernel.name}: divergent backward branch at "
                f"{inst} (data-dependent trip counts are outside the "
                "modeled subset; use predication)"
            )
        if self._join_of is None:
            self._join_of = self._reconvergence_points()
        join = self._join_of.get(pc)
        if join is None:
            raise DivergentBranchError(
                f"kernel {self.kernel.name}: divergent branch at {inst} "
                "has no reconvergence point"
            )
        active = self._active
        simt_stack.append([join, target, taken.copy(), active.copy(), True])
        self._active = active & ~taken
        return pc + 1

    def _split(self, group: _Group, outcomes: np.ndarray) -> List[_Group]:
        """One sub-group per branch outcome, in order of first block."""
        parts = []
        for outcome in (_TAKEN, _NOT_TAKEN, _DIVERGENT):
            index = np.flatnonzero(outcomes == outcome)
            if not len(index):
                continue
            lanes = (index[:, None] * self.block_size + self._lane).ravel()
            parts.append(_Group(
                blocks=group.blocks[index],
                pc=group.pc,
                executed=group.executed,
                stack=[
                    [join, other, other_mask[lanes], saved[lanes], pending]
                    for join, other, other_mask, saved, pending in group.stack
                ],
                regs={name: value[lanes] for name, value in group.regs.items()},
                active=group.active[lanes],
                mem=group.mem.take(index),
            ))
        parts.sort(key=lambda part: part.blocks[0])
        return parts

    # ------------------------------------------------------------------
    # Operand evaluation.
    # ------------------------------------------------------------------
    def _read(self, operand, dtype: Optional[DType]) -> np.ndarray:
        if isinstance(operand, Reg):
            value = self.regs.get(operand.name)
            if value is None:
                value = np.zeros(self._nlanes, dtype=np_dtype(operand.dtype))
                self.regs[operand.name] = value
            return value
        if isinstance(operand, Imm):
            nd = np_dtype(dtype or operand.dtype)
            return np.full(self._nlanes, operand.value, dtype=nd)
        if isinstance(operand, Sreg):
            return self._special(operand.name)
        if isinstance(operand, Sym):
            base = self._sym_base(operand.name)
            return np.full(self._nlanes, base, dtype=np.uint64)
        raise TypeError(f"cannot evaluate operand {operand!r}")

    def _sym_base(self, name: str) -> int:
        if name in self.block_mem.sym_base:
            return self.block_mem.sym_base[name]
        if name in self.global_mem.param_base:
            return self.global_mem.param_base[name]
        raise KeyError(f"unknown symbol {name!r}")

    def _special(self, name: str) -> np.ndarray:
        if name == "%tid.x":
            return self._tid.astype(np.uint32)
        if name == "%ctaid.x":
            return self._ctaid.astype(np.uint32)
        if name == "%ntid.x":
            return np.full(self._nlanes, self.block_size, dtype=np.uint32)
        if name == "%nctaid.x":
            return np.full(self._nlanes, self.grid_blocks, dtype=np.uint32)
        if name == "%laneid":
            return (self._tid % self.warp_size).astype(np.uint32)
        if name == "%warpid":
            return (self._tid // self.warp_size).astype(np.uint32)
        if name in ("%tid.y", "%ctaid.y", "%ntid.y", "%nctaid.y"):
            return np.zeros(self._nlanes, dtype=np.uint32)
        raise KeyError(f"unknown special register {name!r}")

    def _guard_mask(self, inst: Instruction) -> np.ndarray:
        if inst.guard is None:
            return self._active
        mask = self._read(inst.guard, DType.PRED).astype(bool)
        if inst.guard_negated:
            mask = ~mask
        return mask & self._active

    def _write(self, dst: Reg, value: np.ndarray, mask: np.ndarray) -> None:
        nd = np_dtype(dst.dtype)
        value = cast_lanes(np.asarray(value), dst.dtype)
        if mask.all():
            self.regs[dst.name] = value.copy()
            return
        old = self.regs.get(dst.name)
        if old is None:
            old = np.zeros(self._nlanes, dtype=nd)
        self.regs[dst.name] = np.where(mask, value, old)

    # ------------------------------------------------------------------
    # Instruction semantics.
    # ------------------------------------------------------------------
    def _exec_compute(self, inst: Instruction, mask: np.ndarray) -> None:
        opcode = inst.opcode
        dtype = inst.dtype
        nd = np_dtype(dtype) if dtype else None

        def src(i: int) -> np.ndarray:
            value = self._read(inst.srcs[i], dtype)
            if nd is not None and opcode is not Opcode.SELP and value.dtype != nd:
                if opcode in (Opcode.SHL, Opcode.SHR) and i == 1:
                    return value  # shift amounts keep their own type
                value = cast_lanes(value, dtype)
            return value

        with np.errstate(all="ignore"):
            if opcode is Opcode.MOV:
                result = src(0)
            elif opcode is Opcode.CVT:
                result = cast_lanes(self._read(inst.srcs[0], None), dtype)
            elif opcode is Opcode.ADD:
                result = src(0) + src(1)
            elif opcode is Opcode.SUB:
                result = src(0) - src(1)
            elif opcode is Opcode.MUL:
                result = src(0) * src(1)
            elif opcode in (Opcode.MAD, Opcode.FMA):
                result = src(0) * src(1) + src(2)
            elif opcode is Opcode.DIV:
                a, b = src(0), src(1)
                if dtype.is_float:
                    result = a / b
                else:
                    safe = np.where(b == 0, 1, b)
                    result = np.where(b == 0, 0, a // safe)
            elif opcode is Opcode.REM:
                a, b = src(0), src(1)
                safe = np.where(b == 0, 1, b)
                result = np.where(b == 0, 0, a % safe)
            elif opcode is Opcode.MIN:
                result = np.minimum(src(0), src(1))
            elif opcode is Opcode.MAX:
                result = np.maximum(src(0), src(1))
            elif opcode is Opcode.NEG:
                result = -src(0)
            elif opcode is Opcode.ABS:
                result = np.abs(src(0))
            elif opcode is Opcode.AND:
                result = src(0) & src(1)
            elif opcode is Opcode.OR:
                result = src(0) | src(1)
            elif opcode is Opcode.XOR:
                result = src(0) ^ src(1)
            elif opcode is Opcode.NOT:
                result = ~src(0)
            elif opcode is Opcode.SHL:
                result = src(0) << cast_lanes(src(1), DType.U32).astype(np.uint32) % np.uint32(dtype.bits)
            elif opcode is Opcode.SHR:
                result = src(0) >> cast_lanes(src(1), DType.U32).astype(np.uint32) % np.uint32(dtype.bits)
            elif opcode is Opcode.SQRT:
                result = np.sqrt(src(0))
            elif opcode is Opcode.RSQRT:
                result = 1.0 / np.sqrt(src(0))
            elif opcode is Opcode.RCP:
                result = 1.0 / src(0)
            elif opcode is Opcode.SIN:
                result = np.sin(src(0))
            elif opcode is Opcode.COS:
                result = np.cos(src(0))
            elif opcode is Opcode.LG2:
                result = np.log2(np.abs(src(0)) + 1e-30)
            elif opcode is Opcode.EX2:
                result = np.exp2(src(0))
            elif opcode is Opcode.SETP:
                result = self._compare(inst.cmp, src(0), src(1))
            elif opcode is Opcode.SELP:
                pred = self._read(inst.srcs[2], DType.PRED).astype(bool)
                result = np.where(pred, src(0), src(1))
            else:  # pragma: no cover - defensive
                raise NotImplementedError(f"opcode {opcode}")
        self._write(inst.dst, result, mask)

    @staticmethod
    def _compare(cmp: CmpOp, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if cmp is CmpOp.EQ:
            return a == b
        if cmp is CmpOp.NE:
            return a != b
        if cmp is CmpOp.LT:
            return a < b
        if cmp is CmpOp.LE:
            return a <= b
        if cmp is CmpOp.GT:
            return a > b
        return a >= b

    # ------------------------------------------------------------------
    # Memory semantics + address capture.
    # ------------------------------------------------------------------
    def _addresses(self, inst: Instruction) -> np.ndarray:
        base = inst.mem.base
        if isinstance(base, Sym):
            addrs = np.full(
                self._nlanes, self._sym_base(base.name), dtype=np.uint64
            )
        else:
            addrs = cast_lanes(self._read(base, DType.U64), DType.U64)
        if inst.mem.offset:
            addrs = addrs + np.uint64(inst.mem.offset)
        return addrs

    def _exec_load(self, pc, inst, mask) -> None:
        addrs = self._addresses(inst)
        dtype = inst.dtype
        if inst.space is Space.GLOBAL or inst.space is Space.CONST:
            values = self.global_mem.load(addrs, dtype, mask)
        elif inst.space is Space.SHARED:
            values = self.block_mem.load_shared(addrs, dtype, mask)
        elif inst.space is Space.LOCAL:
            values = self.block_mem.load_local(addrs, dtype, mask)
        elif inst.space is Space.PARAM:
            values = self.global_mem.load(addrs, dtype, mask)
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"load from {inst.space}")
        self._write(inst.dst, values, mask)
        self._record_memory(pc, inst, addrs, mask, is_store=False)

    def _exec_store(self, pc, inst, mask) -> None:
        addrs = self._addresses(inst)
        dtype = inst.dtype
        values = cast_lanes(self._read(inst.srcs[0], dtype), dtype)
        if inst.space is Space.GLOBAL:
            self.global_mem.store(addrs, values, dtype, mask)
        elif inst.space is Space.SHARED:
            self.block_mem.store_shared(addrs, values, dtype, mask)
        elif inst.space is Space.LOCAL:
            self.block_mem.store_local(addrs, values, dtype, mask)
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"store to {inst.space}")
        self._record_memory(pc, inst, addrs, mask, is_store=True)

    # ------------------------------------------------------------------
    # Trace recording.
    # ------------------------------------------------------------------
    def _record_simple(self, pc: int, inst: Instruction) -> None:
        op = self._simple_ops.get(pc)
        if op is None:
            dst, srcs = _register_names(inst)
            op = self._simple_ops[pc] = WarpOp(
                kind=inst.latency_class, opcode=inst.opcode, dst=dst, srcs=srcs
            )
        for append in self._appends:
            append(op)

    def _off_op(self, pc: int, inst: Instruction) -> WarpOp:
        """The op of a fully predicated-off warp: it still issues."""
        op = self._off_ops.get(pc)
        if op is None:
            dst, srcs = _register_names(inst)
            op = self._off_ops[pc] = WarpOp(
                kind=LatencyClass.ALU, opcode=inst.opcode, dst=dst, srcs=srcs
            )
        return op

    def _record_memory(self, pc, inst, addrs, mask, is_store) -> None:
        """Record one memory instruction for every warp of the group.

        Per warp, the sorted distinct entries of its active lanes give
        the cache lines (global/local) or the shared-memory bank
        serialization: the most distinct 4-byte words in one bank.
        """
        space = inst.space
        appends = self._appends
        wmask = mask.reshape(len(appends), self.warp_size)
        active = wmask.sum(axis=1).tolist()
        lines_of = conflicts = None
        if space is Space.LOCAL:
            lines_of = self._interleave_local(addrs)
        elif space in (Space.GLOBAL, Space.CONST, Space.PARAM):
            lines_of = addrs.astype(np.int64)
        if lines_of is not None:
            values, distinct = _distinct_per_warp(
                lines_of // self.line_bytes, wmask
            )
            flat = (values[distinct] * self.line_bytes).tolist()
            sizes = distinct.sum(axis=1).tolist()
        elif space is Space.SHARED:
            words, distinct = _distinct_per_warp(
                addrs.astype(np.int64) // 4, wmask
            )
            banks = self.shared_banks
            slots = np.arange(len(words))[:, None] * banks + words % banks
            per_bank = np.bincount(
                slots[distinct], minlength=len(words) * banks
            )
            conflicts = per_bank.reshape(-1, banks).max(axis=1).tolist()
        width = inst.dtype.bytes if inst.dtype else 4
        interned = self._mem_ops
        lines: Tuple[int, ...] = ()
        conflict = 1
        start = 0
        for w, append in enumerate(appends):
            lanes = active[w]
            if not lanes:
                # Fully predicated-off warps still issue the instruction.
                append(self._off_op(pc, inst))
                continue
            if lines_of is not None:
                end = start + sizes[w]
                lines = tuple(flat[start:end])
                start = end
            elif conflicts is not None:
                conflict = conflicts[w]
            key = (pc, lines, lanes, conflict)
            op = interned.get(key)
            if op is None:
                dst, srcs = _register_names(inst)
                op = interned[key] = WarpOp(
                    kind=LatencyClass.MEM,
                    opcode=inst.opcode,
                    dst=dst,
                    srcs=srcs,
                    space=space,
                    is_store=is_store,
                    lines=lines,
                    bytes=lanes * width,
                    conflict=conflict,
                    bypass_l1=(inst.cache_op == "cg"),
                )
            append(op)

    def _interleave_local(self, addrs: np.ndarray) -> np.ndarray:
        """Map per-thread local offsets to interleaved physical addresses."""
        words = (addrs.astype(np.int64) - int(LOCAL_BASE)) // 4
        return (
            LOCAL_PHYS_BASE
            + (words * self._total_threads + self._gtid) * 4
        ).astype(np.int64)


def _register_names(inst: Instruction) -> Tuple[Optional[str], Tuple[str, ...]]:
    """An instruction's destination and source register names."""
    dst = inst.dst.name if inst.dst is not None else None
    return dst, tuple(r.name for r in inst.uses())


def _distinct_per_warp(
    values: np.ndarray, wmask: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per warp (row of ``wmask``), its active lanes' values sorted, and
    a flag on the first of each run of equal ones (none for a warp with
    no active lane)."""
    values = values.reshape(wmask.shape)
    # Inactive lanes repeat one of the warp's active values, so they
    # add no distinct entry.
    first = values[np.arange(len(values)), wmask.argmax(axis=1)]
    values = np.where(wmask, values, first[:, None])
    values.sort(axis=1)
    distinct = np.empty(values.shape, dtype=bool)
    distinct[:, 0] = wmask.any(axis=1)
    np.not_equal(values[:, 1:], values[:, :-1], out=distinct[:, 1:])
    distinct[:, 1:] &= distinct[:, :1]
    return values, distinct


def run_grid(
    kernel: Kernel,
    global_mem: GlobalMemory,
    grid_blocks: int,
    warp_size: int = 32,
    line_bytes: int = 128,
) -> List[BlockTrace]:
    """Execute every block of a grid; returns all traces in block order.

    The blocks run in lockstep, in groups of at most
    ``_MAX_GROUP_LANES`` lanes.  Blocks in the modeled subset do not
    communicate, so lockstep functional execution is equivalent to any
    interleaving, running them one after another included.
    """
    per_group = max(1, _MAX_GROUP_LANES // kernel.block_size)
    traces: List[BlockTrace] = []
    for first in range(0, grid_blocks, per_group):
        executor = BlockExecutor(
            kernel,
            global_mem,
            block_id=first,
            grid_blocks=grid_blocks,
            warp_size=warp_size,
            line_bytes=line_bytes,
            num_blocks=min(per_group, grid_blocks - first),
        )
        traces.extend(executor.run_blocks())
    return traces
