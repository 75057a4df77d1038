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
  ``verify=True``.

:func:`lint_kernel` bundles the checks that make sense on a bare
kernel file (``repro verify``; ``--pipeline`` adds the registry's
:data:`~repro.ir.pipeline.VERIFIED_SPEC` under per-rewrite
validation); the ``--verify`` flag on the CLI's
``allocate``/``simulate``/``crat``/``suite`` commands routes the
allocation and pass validators through the optimizer itself.

``stats`` counts validations per pass (keys ``"dataflow"``,
``"allocation"``, ``"pipeline"``) so tests can assert that degraded
evaluation paths never silently bypass validation.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

#: Process-wide validation counters; see module docstring.
stats: "Counter[str]" = Counter()


def reset_stats() -> None:
    """Clear the validation counters (test isolation)."""
    stats.clear()


from ..ptx.module import Kernel  # noqa: E402
from .allocation import (  # noqa: E402
    discover_spill_regions,
    lint_spill_stacks,
    verify_allocation,
)
from .dataflow import verify_dataflow, verify_kernel  # noqa: E402
from .diagnostics import (  # noqa: E402
    Diagnostic,
    VerifyReport,
)
from .registry import FAMILIES, RULES, Rule, Severity  # noqa: E402
from .pipeline import effect_summary, verify_pass  # noqa: E402


def lint_kernel(kernel: Kernel, stage: Optional[str] = None) -> VerifyReport:
    """Every check that applies to a bare kernel: dataflow rules plus
    structural spill-stack discipline (``repro verify`` lint mode)."""
    stats["dataflow"] += 1
    report = verify_dataflow(kernel, stage=stage)
    report.extend(lint_spill_stacks(kernel, stage=stage))
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
    "reset_stats",
    "stats",
    "verify_allocation",
    "verify_dataflow",
    "verify_kernel",
    "verify_pass",
]
