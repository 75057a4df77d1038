"""Local copy propagation over the PTX-subset IR.

Rewrites uses of ``%b`` to ``%a`` after ``mov %b, %a`` within a basic
block, as long as neither register is redefined in between and the
types are bit-compatible.  The SSA-style front end produces many such
copies (paper Listing 2's ``mov`` chains); propagating them lets DCE
delete the movs and shortens live ranges before allocation.

Only register-to-register movs are propagated — immediates are left to
the allocator's rematerialization, and special-register reads must stay
(they are the canonical definition points).

Expressed as :class:`CopyPropPattern` on the rewrite driver: the
pattern anchors at any instruction with rewritable uses, reconstructs
the copy map over its (already final) block prefix, and replaces the
one instruction.  ``--passes copy-prop`` drives it to the fixpoint, so
chains longer than the resolution bound of :func:`_resolve` unravel
over further sweeps.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.rewrite import Rewrite, RewritePattern
from ..ir.view import InstrWindow, RewriteContext
from ..ptx.instruction import Instruction, Reg
from ..ptx.isa import Opcode


class CopyPropPattern(RewritePattern):
    """Rewrite one instruction's uses through the block's copy map."""

    name = "copy-prop"
    verify_mode = "exact"

    def match(
        self, window: InstrWindow, ctx: RewriteContext
    ) -> Optional[Rewrite]:
        inst = window.instr
        if not inst.uses():
            return None
        copies: Dict[str, Reg] = {}
        for pos, prior in window.block.positions():
            if pos == window.pos:
                break
            _track_copies(copies, prior)
        mapping: Dict[str, Reg] = {}
        for reg in inst.uses():
            source = _resolve(copies, reg)
            if source is not None and source.name != reg.name:
                mapping[reg.name] = Reg(source.name, reg.dtype)
        if not mapping:
            return None
        rewrite = Rewrite(window.pos, note="propagate copies")
        rewrite.replace(
            window.pos, inst.rewrite_regs(lambda r: mapping.get(r.name, r))
        )
        rewrite.metadata["rewritten_uses"] = len(mapping)
        return rewrite


def _track_copies(copies: Dict[str, Reg], inst: Instruction) -> None:
    """Advance the copy map across one (already final) instruction."""
    # Kill copies invalidated by this definition.
    for dreg in inst.defs():
        copies.pop(dreg.name, None)
        stale = [d for d, s in copies.items() if s.name == dreg.name]
        for name in stale:
            del copies[name]
    # Record a new copy.
    if (
        inst.opcode is Opcode.MOV
        and inst.guard is None
        and inst.dst is not None
        and len(inst.srcs) == 1
        and isinstance(inst.srcs[0], Reg)
        and _compatible(inst.dst, inst.srcs[0])
    ):
        copies[inst.dst.name] = inst.srcs[0]


def _resolve(copies: Dict[str, Reg], reg: Reg, limit: int = 8):
    """Follow the copy chain from ``reg`` (bounded)."""
    current = reg
    seen = 0
    while current.name in copies and seen < limit:
        current = copies[current.name]
        seen += 1
    return current if seen else None


def _compatible(a: Reg, b: Reg) -> bool:
    if a.dtype.reg_class is not b.dtype.reg_class:
        return False
    return a.dtype.bits == b.dtype.bits
