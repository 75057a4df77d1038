"""Pre-allocation optimization passes on the pattern-rewrite driver.

Every pass is a :class:`repro.ir.RewritePattern` applied by the
:class:`repro.ir.GreedyRewriteDriver`; the historical function APIs
(``propagate_copies``, ``eliminate_dead_code``, ...) remain as thin
driver wrappers with unchanged result types.  Each pass's output kernel
and counters are pinned for the whole corpus in the golden ledger
(``tools/ledger.json``, checked by ``tools/ledger_gate.py``).

``optimize_kernel`` runs the standard cleanup pipeline the production
toolchain applies before register allocation: copy propagation and
dead-code elimination as one interleaved pattern set, driven to the
fixpoint where a full sweep applies no rewrite.
"""

from __future__ import annotations

import dataclasses

from ..ir.driver import GreedyRewriteDriver, RewriteBudgetWarning
from ..ptx.module import Kernel
from .bypass import BypassPattern, BypassResult, apply_static_bypass
from .copy_prop import CopyPropPattern, CopyPropResult, propagate_copies
from .dce import DCEPattern, DCEResult, eliminate_dead_code
from .minreg import MinRegResult, MinRegSchedPattern, schedule_for_minreg
from .schedule import MlpSchedPattern, ScheduleResult, schedule_for_mlp
from .unroll import UnrollPattern, UnrollResult, unroll_loops


@dataclasses.dataclass
class PipelineResult:
    """Outcome of the cleanup pipeline."""

    kernel: Kernel
    rewritten_uses: int
    removed_instructions: int
    iterations: int


def optimize_kernel(
    kernel: Kernel, max_iterations: int = 8, verify: bool = False
) -> PipelineResult:
    """Copy-propagate and DCE to a fixed point; returns a new kernel.

    Convergence is detected by the driver applying **no rewrites** in a
    full sweep (not by comparing kernel snapshots); exhausting
    ``max_iterations`` sweeps before that emits a structured
    :class:`repro.ir.RewriteBudgetWarning` rather than silently
    truncating.

    With ``verify``, every individual rewrite is translation-validated
    (:func:`repro.verify.verify_pass`): a rewrite that changes the
    kernel's observable effects or breaks its dataflow raises
    :class:`repro.errors.VerificationError` at its application site
    instead of producing wrong benchmark numbers downstream.
    """
    driver = GreedyRewriteDriver(
        [CopyPropPattern(), DCEPattern()],
        max_sweeps=max_iterations,
        verify=verify,
    )
    result = driver.run(kernel)
    return PipelineResult(
        kernel=result.kernel,
        rewritten_uses=sum(
            app.metadata.get("rewritten_uses", 0)
            for app in result.applications
        ),
        removed_instructions=result.counters["dce"],
        iterations=result.sweeps,
    )


__all__ = [
    "BypassPattern",
    "BypassResult",
    "CopyPropPattern",
    "CopyPropResult",
    "DCEPattern",
    "DCEResult",
    "MinRegResult",
    "MinRegSchedPattern",
    "MlpSchedPattern",
    "PipelineResult",
    "RewriteBudgetWarning",
    "ScheduleResult",
    "UnrollPattern",
    "UnrollResult",
    "apply_static_bypass",
    "eliminate_dead_code",
    "optimize_kernel",
    "propagate_copies",
    "schedule_for_minreg",
    "schedule_for_mlp",
    "unroll_loops",
]
