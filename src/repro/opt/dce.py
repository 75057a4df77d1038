"""Dead-code elimination over the PTX-subset IR.

Removes instructions whose results are never observed: a definition is
dead when its register is not live out of the defining instruction and
the instruction has no side effect (stores, barriers and control flow
are always live).  Driven to a fixed point, since removing one dead
definition can kill the chain that fed it.

The generator and hand-written kernels occasionally carry such chains
(e.g. a loaded value only used by an eliminated update); running DCE
before register allocation lowers the register demand the allocator
sees, exactly as production PTX optimizers do before ``ptxas``.

Expressed as :class:`DCEPattern` on the rewrite driver: the pattern
erases one dead definition per match against the context's cached
liveness, which the driver refreshes after every erasure — so chains
unravel within a single sweep and the driver's no-rewrites sweep is the
fixpoint.
"""

from __future__ import annotations

from typing import Optional

from ..ir.rewrite import Rewrite, RewritePattern
from ..ir.view import InstrWindow, RewriteContext
from ..ptx.isa import Opcode

#: Opcodes that must never be removed regardless of liveness.
_SIDE_EFFECTS = frozenset(
    {Opcode.ST, Opcode.BAR, Opcode.BRA, Opcode.RET, Opcode.EXIT}
)


class DCEPattern(RewritePattern):
    """Erase one definition that is not live out of its position."""

    name = "dce"
    verify_mode = "exact"

    def match(
        self, window: InstrWindow, ctx: RewriteContext
    ) -> Optional[Rewrite]:
        inst = window.instr
        if inst.opcode in _SIDE_EFFECTS or inst.dst is None:
            return None
        if inst.dst.name in ctx.liveness.live_out[window.pos]:
            return None
        rewrite = Rewrite(
            window.pos, note=f"dead definition of {inst.dst.name}"
        )
        rewrite.erase(window.pos)
        return rewrite
