"""Partial unrolling of counted innermost loops.

Unrolling is the classic ILP knob that *raises register pressure* — the
exact tension CRAT coordinates (more live values per iteration against
the TLP the registers permit; the paper's related work points to loop
optimization [27] as a complementary lever).  This pass unrolls loops
of the canonical counted shape

.. code-block:: text

    $head:
        setp.ge.s32 %p, %i, <trip>;    // immediate trip count
        @%p bra $exit;
        <straight-line body ... add %i, %i, 1;>
        bra $head;
    $exit:

by replicating the body ``factor`` times per back edge (the counter
increment replicates with it, so iteration-dependent addresses stay
correct).  Only branch-free bodies are transformed, and only when the
factor divides the trip count — otherwise the loop is left alone.
Each replica after the first gets fresh names for its iteration-local
temporaries, so independent replicas can overlap in the pipeline — the
memory-level-parallelism gain unrolling is for, at the cost of
proportionally higher register pressure.

Expressed as :class:`UnrollPattern` on the rewrite driver: the pattern
anchors at a loop header's leader and splices the replicated latch.
The unrolled latch carries ``factor`` counter increments, so the
canonical-shape match rejects it on the next offer — the rewrite
retires its own match, which is the driver's termination argument.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..cfg.graph import CFG
from ..ir.rewrite import Rewrite, RewritePattern
from ..ir.view import InstrWindow, RewriteContext
from ..ptx.instruction import Imm, Instruction, Reg
from ..ptx.isa import CmpOp, Opcode


@dataclasses.dataclass
class _CountedLoop:
    header_index: int
    latch_index: int
    counter: str
    trip: int


def _match_counted_loop(cfg: CFG, header: int, body) -> Optional[_CountedLoop]:
    """Recognize the canonical two-block counted loop."""
    if len(body) != 2:
        return None
    latch = next(b for b in body if b != header)
    head_block = cfg.blocks[header]
    latch_block = cfg.blocks[latch]
    insts = head_block.instructions
    if len(insts) != 2:
        return None
    setp, bra = insts
    if setp.opcode is not Opcode.SETP or setp.cmp is not CmpOp.GE:
        return None
    if not (
        isinstance(setp.srcs[0], Reg)
        and isinstance(setp.srcs[1], Imm)
    ):
        return None
    if bra.opcode is not Opcode.BRA or bra.guard is None:
        return None
    if bra.guard.name != setp.dst.name or bra.guard_negated:
        return None
    counter = setp.srcs[0].name
    trip = int(setp.srcs[1].value)

    # Latch: straight-line, ends with an unconditional branch to the
    # header, contains exactly one `add counter, counter, 1`.
    last = latch_block.instructions[-1]
    if not (last.opcode is Opcode.BRA and last.guard is None):
        return None
    increments = [
        inst
        for inst in latch_block.instructions
        if inst.opcode is Opcode.ADD
        and inst.dst is not None
        and inst.dst.name == counter
    ]
    if len(increments) != 1:
        return None
    inc = increments[0]
    if not (
        len(inc.srcs) == 2
        and isinstance(inc.srcs[0], Reg)
        and inc.srcs[0].name == counter
        and isinstance(inc.srcs[1], Imm)
        and int(inc.srcs[1].value) == 1
    ):
        return None
    return _CountedLoop(
        header_index=header, latch_index=latch, counter=counter, trip=trip
    )


def _local_defs(straight: List[Instruction]) -> List[str]:
    """Registers whose first occurrence in the body is a definition.

    These are the iteration-local temporaries (loaded values, address
    computations); loop-carried values appear as a *use* first and must
    keep their names across replicas.
    """
    seen_use = set()
    locals_: List[str] = []
    for inst in straight:
        for reg in inst.uses():
            if reg.name not in locals_:
                seen_use.add(reg.name)
        for reg in inst.defs():
            if reg.name not in seen_use and reg.name not in locals_:
                locals_.append(reg.name)
    return locals_


def _rename_replica(
    straight: List[Instruction], locals_: List[str], suffix: str
) -> List[Instruction]:
    mapping = {name: f"{name}u{suffix}" for name in locals_}

    def remap(reg: Reg) -> Reg:
        new = mapping.get(reg.name)
        return Reg(new, reg.dtype) if new else reg

    return [inst.rewrite_regs(remap) for inst in straight]


class UnrollPattern(RewritePattern):
    """Replicate one matching innermost counted loop's latch body.

    Unrolling legitimately multiplies the static store sequence, so the
    pattern validates in ``structure`` mode (CFG health + dataflow
    regressions); its semantic weight is carried by dedicated
    functional tests.
    """

    name = "unroll"
    verify_mode = "structure"

    def __init__(self, factor: int = 2):
        if factor < 2:
            raise ValueError("unroll factor must be at least 2")
        self.factor = factor

    def match(
        self, window: InstrWindow, ctx: RewriteContext
    ) -> Optional[Rewrite]:
        if not window.is_block_leader:
            return None
        header = window.block.index
        loop = next((l for l in ctx.loops if l.header == header), None)
        if loop is None:
            return None
        headers = {l.header for l in ctx.loops}
        if (loop.body - {loop.header}) & headers:
            return None  # not innermost
        matched = _match_counted_loop(ctx.cfg, loop.header, loop.body)
        if matched is None or matched.trip % self.factor != 0:
            return None
        latch_block = ctx.cfg.blocks[matched.latch_index]
        latch_insts = latch_block.instructions
        straight, branch = latch_insts[:-1], latch_insts[-1]
        locals_ = _local_defs(straight)
        replacement: List[Instruction] = list(straight)
        for copy_index in range(1, self.factor):
            replacement.extend(
                _rename_replica(straight, locals_, str(copy_index))
            )
        replacement.append(branch)
        rewrite = Rewrite(
            window.pos,
            note=f"unroll x{self.factor} counter {matched.counter}",
        )
        rewrite.splice(latch_block.start, len(latch_insts), replacement)
        return rewrite
