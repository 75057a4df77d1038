"""Translation validation for the CRAT pipeline.

Three cooperating static-analysis passes over the PTX-subset IR, all
emitting the shared typed :class:`~repro.verify.diagnostics.Diagnostic`
(stable rule codes, severity, location, machine-readable payload):

* :func:`verify_dataflow` — dominance-aware def-before-use and CFG
  health on one kernel (rules ``DF*``); :func:`verify_kernel` is the
  load gate built on it (any DF error is a parse error, exit 2);
* :func:`verify_allocation` — independent recheck of an
  :class:`~repro.regalloc.allocator.AllocationResult`: register
  sharing, spill-slot discipline, layout stride, shared-memory budget
  (rules ``AL*``);
* :func:`verify_pass` — observable-effect preservation across each
  rewrite of a :mod:`repro.opt` pass (rules ``PL*``), called by the
  rewrite driver whenever :func:`repro.ir.run_pipeline` runs with
  ``verify=True``, and again on each recorded rewrite when a verified
  request reads the pipeline from the stage memo
  (:func:`repro.ir.replay_chain`).  It takes two kernels or, from the
  driver, the analysis contexts of the two revisions
  (:class:`~repro.ir.view.RewriteContext`), whose dataflow reports and
  effect summaries it computes once per revision.

:func:`lint_kernel` bundles the checks that make sense on a bare
kernel file (``repro verify``; ``--pipeline`` adds the registry's
:data:`~repro.ir.pipeline.VERIFIED_SPEC` under per-rewrite
validation); the ``--verify`` flag on the CLI's
``allocate``/``simulate``/``crat``/``suite`` commands routes the
allocation and pass validators through the optimizer itself.
"""

from __future__ import annotations

from typing import Optional, Union

from ..cfg.graph import CFG
from ..ir.view import RewriteContext
from ..ptx.module import Kernel
from .allocation import (
    _spill_stack_lint,
    discover_spill_regions,
    lint_spill_stacks,
    verify_allocation,
)
from .dataflow import verify_dataflow, verify_kernel
from .diagnostics import (
    Diagnostic,
    VerifyReport,
)
from .registry import FAMILIES, RULES, Rule, Severity
from .pipeline import _dataflow, effect_summary, verify_pass


def lint_kernel(
    kernel: Union[Kernel, RewriteContext], stage: Optional[str] = None
) -> VerifyReport:
    """Every check that applies to a bare kernel: dataflow rules plus
    structural spill-stack discipline (``repro verify`` lint mode), on
    one CFG.

    Given the kernel's :class:`~repro.ir.view.RewriteContext`, the
    checks read the context's CFG and leave their dataflow report in
    it, where :func:`verify_pass` reads it when the context is the
    ``before`` side of a rewrite: a request that lints its input and
    then runs a verified pipeline from that context DF-checks the input
    once.
    """
    ctx = RewriteContext.of(kernel)
    try:
        cfg: Optional[CFG] = ctx.cfg
    except ValueError:
        cfg = None  # verify_dataflow reports (or raises) as it does alone
    dataflow = verify_dataflow(ctx.kernel, cfg, stage=stage)
    ctx.cached(_dataflow, lambda _: dataflow)
    report = VerifyReport(
        kernel=dataflow.kernel,
        diagnostics=list(dataflow.diagnostics),
        stage=stage,
    )
    report.extend(_spill_stack_lint(ctx.kernel, cfg, stage))
    return report


__all__ = [
    "Diagnostic",
    "FAMILIES",
    "RULES",
    "Rule",
    "Severity",
    "VerifyReport",
    "discover_spill_regions",
    "effect_summary",
    "lint_kernel",
    "lint_spill_stacks",
    "verify_allocation",
    "verify_dataflow",
    "verify_kernel",
    "verify_pass",
]
