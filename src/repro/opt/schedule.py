"""List scheduling for memory-level parallelism (load hoisting).

GPU compilers hoist independent loads above their consumers so a warp
issues many memory requests before stalling — the memory-level
parallelism that hides DRAM latency.  The price is register pressure:
every hoisted load's destination is live until its (now distant)
consumer.  Combined with :mod:`repro.opt.unroll`, this reproduces the
classic ILP-vs-occupancy tension that CRAT's coordinated register/TLP
search resolves.

The scheduler works per basic block on the shared dependency DAG
(:mod:`repro.opt.dag`).  Ready instructions whose subtree leads to a
load are scheduled first (hoisting whole address chains); ties keep
program order, so the pass is deterministic, idempotent, and a no-op
on blocks without loads.

Expressed as :class:`MlpSchedPattern` on the rewrite driver: the
pattern anchors at block leaders and splices the whole rescheduled
block.  Idempotence (rescheduling a scheduled block returns it
unchanged, which the pattern reports as no match) is what makes the
driver's fixpoint identical to the original one-shot per-block pass.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence

from ..ir.rewrite import Rewrite, RewritePattern
from ..ir.view import InstrWindow, RewriteContext
from ..ptx.instruction import Instruction
from ..ptx.isa import Opcode
from .dag import build_dependency_dag


class MlpSchedPattern(RewritePattern):
    """Reschedule one basic block to hoist loads."""

    name = "mlp-sched"
    verify_mode = "exact"

    def match(
        self, window: InstrWindow, ctx: RewriteContext
    ) -> Optional[Rewrite]:
        if not window.is_block_leader:
            return None
        block = window.block
        scheduled = _schedule_block(block.instructions)
        if scheduled is None:
            return None
        rewrite = Rewrite(window.pos, note="hoist loads for MLP")
        rewrite.splice(block.start, len(block.instructions), scheduled)
        rewrite.metadata["moved"] = sum(
            1 for a, b in zip(block.instructions, scheduled) if a is not b
        )
        return rewrite


def _schedule_block(insts: Sequence[Instruction]):
    """Return the rescheduled instruction list, or None if unchanged."""
    n = len(insts)
    if n < 3:
        return None
    if not any(inst.opcode is Opcode.LD for inst in insts):
        return None

    succs, preds_count = build_dependency_dag(insts)

    # --- priority: does this instruction lead to a load? ----------------
    leads_to_load = [False] * n
    for i in range(n - 1, -1, -1):
        if insts[i].opcode is Opcode.LD:
            leads_to_load[i] = True
            continue
        leads_to_load[i] = any(leads_to_load[s] for s in succs[i])

    # --- list schedule ---------------------------------------------------
    ready = [
        ((not leads_to_load[i]), i) for i in range(n) if preds_count[i] == 0
    ]
    heapq.heapify(ready)
    order: List[int] = []
    remaining = list(preds_count)
    while ready:
        _, i = heapq.heappop(ready)
        order.append(i)
        for s in succs[i]:
            remaining[s] -= 1
            if remaining[s] == 0:
                heapq.heappush(ready, ((not leads_to_load[s]), s))
    if len(order) != n:  # pragma: no cover - DAG is acyclic by build
        return None
    if order == list(range(n)):
        return None
    return [insts[i] for i in order]
