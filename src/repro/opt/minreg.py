"""Min-register instruction scheduling (MaxLive minimization).

The design-space pruner discards every ``(reg, TLP)`` staircase point
whose register budget the kernel's MaxReg exceeds — so a schedule that
*lowers* MaxReg unlocks coordinates the CRAT search could never reach
(ROADMAP: min-register scheduling, after Chen 2023's optimal/heuristic
min-reg scheduling for GPU programs).  This pass is the deliberate
inverse of the MLP scheduler: instead of hoisting loads away from
their consumers (stretching live ranges to buy latency overlap), it
greedily emits, among dependence-ready instructions, the one with the
lowest net register-pressure delta — values are consumed as soon as
possible and defined as late as possible, shrinking within-block live
ranges and with them the interference the allocator must color.

Per basic block, pre-allocation, on the shared dependency DAG
(:mod:`repro.opt.dag`):

* ``delta(i)`` = slots of values *born* at ``i`` (definitions that stay
  live afterwards) minus slots of values *dying* at ``i`` (names whose
  last in-block access this is, unless live out of the block);
* ready instructions are emitted in ascending ``(delta, program
  order)``, so the pass is deterministic and idempotent, ties preserve
  the original order, and the effect summary is untouched (stores stay
  totally ordered; same-address loads keep their relative order).

First pattern set landed on the rewrite driver rather than ported to
it — selectable as ``minreg-sched`` via ``--passes``.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence

from ..cfg.liveness import BlockPressureTracker
from ..ir.rewrite import Rewrite, RewritePattern
from ..ir.view import InstrWindow, RewriteContext
from ..ptx.instruction import Instruction
from .dag import build_dependency_dag


class MinRegSchedPattern(RewritePattern):
    """Reschedule one basic block to minimize MaxLive."""

    name = "minreg-sched"
    verify_mode = "exact"

    def match(
        self, window: InstrWindow, ctx: RewriteContext
    ) -> Optional[Rewrite]:
        if not window.is_block_leader:
            return None
        block = window.block
        if not block.instructions:
            return None
        last_pos = block.start + len(block.instructions) - 1
        live_out = ctx.liveness.live_out[last_pos]
        scheduled = _schedule_block_minreg(block.instructions, live_out)
        if scheduled is None:
            return None
        rewrite = Rewrite(window.pos, note="minimize MaxLive")
        rewrite.splice(block.start, len(block.instructions), scheduled)
        rewrite.metadata["moved"] = sum(
            1 for a, b in zip(block.instructions, scheduled) if a is not b
        )
        return rewrite


def _schedule_block_minreg(
    insts: Sequence[Instruction], live_out: FrozenSet[str]
):
    """Return the pressure-minimizing order, or None if unchanged."""
    n = len(insts)
    if n < 3:
        return None

    succs, preds_count = build_dependency_dag(insts)
    tracker = BlockPressureTracker(insts, live_out)

    ready = sorted(i for i in range(n) if preds_count[i] == 0)
    order: List[int] = []
    counts = list(preds_count)
    while ready:
        best = min(ready, key=lambda i: (tracker.delta(i), i))
        ready.remove(best)
        order.append(best)
        tracker.emit(best)
        for s in succs[best]:
            counts[s] -= 1
            if counts[s] == 0:
                ready.append(s)
    if len(order) != n:  # pragma: no cover - DAG is acyclic by build
        return None
    if order == list(range(n)):
        return None
    return [insts[i] for i in order]
