"""Static cache bypassing for streaming global loads.

The paper notes CRAT "can be used together with cache bypassing
techniques to further improve the cache performance" (Section 8,
referring to the authors' ICCAD'13/HPCA'15 work).  This pass implements
the static flavour: global loads whose addresses *stream* — the base
pointer is advanced by a loop-carried increment and never wraps — have
no reuse, so caching them only evicts useful lines.  Such loads are
marked ``ld.global.cg`` and the simulator services them from the L2
without touching L1 tags or MSHRs.

Detection is a conservative dataflow pattern match: a load streams when
its address register is (transitively, through copies/adds with
immediates) rooted at a register that is *monotonically advanced* in a
loop — redefined by ``add reg, reg, <imm>`` with no masking — and that
register has no other definition inside the loop.

Expressed as :class:`BypassPattern` on the rewrite driver: the
streaming-roots/loop-membership analysis is memoized on the rewrite
context (it only reads defs, which flipping a load's cache operator
never changes), and each matching load is replaced individually.
Flipped loads carry ``cache_op="cg"`` and no longer match, so the
driver converges after one productive sweep.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from ..ir.rewrite import Rewrite, RewritePattern
from ..ir.view import InstrWindow, RewriteContext
from ..ptx.instruction import Imm, Instruction, Reg
from ..ptx.isa import Opcode, Space


def _streaming_analysis(ctx: RewriteContext) -> Tuple[Set[str], Set[int]]:
    """(streaming root names, loop-resident instruction positions)."""
    cfg = ctx.cfg
    loop_blocks: Set[int] = set()
    for loop in ctx.loops:
        loop_blocks.update(loop.body)

    # Registers advanced monotonically inside a loop: exactly one
    # in-loop definition of the form  add r, r, imm  (self-increment).
    defs_in_loop: Dict[str, List[Instruction]] = {}
    pos_in_loop: Set[int] = set()
    for block in cfg.blocks:
        if block.index not in loop_blocks:
            continue
        for pos, inst in block.positions():
            pos_in_loop.add(pos)
            for dreg in inst.defs():
                defs_in_loop.setdefault(dreg.name, []).append(inst)

    streaming_roots: Set[str] = set()
    for name, sites in defs_in_loop.items():
        if len(sites) != 1:
            continue
        inst = sites[0]
        if (
            inst.opcode is Opcode.ADD
            and inst.dst is not None
            and len(inst.srcs) == 2
            and isinstance(inst.srcs[0], Reg)
            and inst.srcs[0].name == name
            and isinstance(inst.srcs[1], Imm)
            and int(inst.srcs[1].value) > 0
        ):
            streaming_roots.add(name)
    return streaming_roots, pos_in_loop


class BypassPattern(RewritePattern):
    """Flip one loop-resident streaming ``ld.global.ca`` to ``.cg``."""

    name = "bypass"
    verify_mode = "exact"  # cache_op is excluded from effect summaries

    def match(
        self, window: InstrWindow, ctx: RewriteContext
    ) -> Optional[Rewrite]:
        inst = window.instr
        if not (
            inst.opcode is Opcode.LD
            and inst.space is Space.GLOBAL
            and inst.cache_op == "ca"
            and inst.mem is not None
            and isinstance(inst.mem.base, Reg)
        ):
            return None
        roots, pos_in_loop = ctx.cached(self.name, _streaming_analysis)
        if window.pos not in pos_in_loop or inst.mem.base.name not in roots:
            return None
        rewrite = Rewrite(
            window.pos,
            note=f"bypass streaming load via {inst.mem.base.name}",
        )
        rewrite.replace(window.pos, dataclasses.replace(inst, cache_op="cg"))
        return rewrite
