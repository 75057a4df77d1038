"""Declarative pattern-rewrite infrastructure over the PTX-subset IR.

The optimization passes in :mod:`repro.opt` are expressed as
:class:`RewritePattern` subclasses — pure matchers from an immutable
:class:`InstrWindow` (plus cached CFG/liveness/loop context) to a
declarative :class:`Rewrite` — applied through one audited mutation
API (:class:`Rewriter`) by a :class:`GreedyRewriteDriver` that iterates
pattern sets to a fixpoint with per-pattern counters and a provenance
trace.  Every applied rewrite can be individually translation-validated
by :func:`repro.verify.verify_pass`, replacing whole-pass snapshot
diffs with per-edit checks.

:mod:`repro.ir.pipeline` adds the named pass registry and
:func:`run_pipeline`, the one way to run a pass — behind the CLI's
``--passes`` flag, ``repro verify --pipeline`` and the golden ledger —
plus the pipeline component of the stage memo keys.
"""

from .driver import (
    DriverResult,
    GreedyRewriteDriver,
    RewriteApplication,
    RewriteBudgetWarning,
)
from .pipeline import (
    DEFAULT_PASSES,
    PIPELINE_SCHEMA_VERSION,
    PipelineRunResult,
    available_passes,
    parse_passes,
    pipeline_signature,
    run_pipeline,
)
from .rewrite import Rewrite, RewriteError, RewritePattern, Rewriter, Splice
from .view import InstrWindow, RewriteContext

__all__ = [
    "DEFAULT_PASSES",
    "DriverResult",
    "GreedyRewriteDriver",
    "InstrWindow",
    "PIPELINE_SCHEMA_VERSION",
    "PipelineRunResult",
    "Rewrite",
    "RewriteApplication",
    "RewriteBudgetWarning",
    "RewriteContext",
    "RewriteError",
    "RewritePattern",
    "Rewriter",
    "Splice",
    "available_passes",
    "parse_passes",
    "pipeline_signature",
    "run_pipeline",
]
