"""Greedy fixpoint rewrite driver with provenance and per-rewrite
translation validation.

The driver sweeps the kernel in program order, offering each position
to its patterns in priority (list) order.  The first pattern that
matches has its :class:`~repro.ir.rewrite.Rewrite` applied through the
audited :class:`~repro.ir.rewrite.Rewriter`; the new kernel revision
gets its own analysis context and the sweep resumes *at the same
position* (erasures shift the next instruction in; replacements no
longer match, so re-offering is cheap and keeps the work-list
implicit).  A sweep that applies no rewrite is the fixpoint.

There is one :class:`~repro.ir.view.RewriteContext` per kernel
revision: a sweep that starts on the previous sweep's kernel keeps its
context, and :meth:`GreedyRewriteDriver.run` accepts a context as well
as a kernel, so a pipeline hands each stage the previous stage's last
context.  Each revision's analyses are therefore computed at most once
per run.

Every application is recorded as a :class:`RewriteApplication` —
pattern name, anchor instruction, before/after text and the kernel
revision it made — and, when ``verify`` is on, individually checked
with :func:`repro.verify.verify_pass` in the pattern's declared mode,
so a single bad rewrite is caught at its application site instead of
being smeared across a whole-pass snapshot diff.  The check receives
the two revisions' contexts, so each revision is dataflow-checked and
summarized once, as the ``after`` of the rewrite that made it.  The
recorded revisions are what a pipeline's rewrite chain keeps for the
stage memo (:class:`repro.ir.pipeline.RewriteChain`).

Budget exhaustion (sweeps or rewrites) is never silent: the driver
emits a structured :class:`RewriteBudgetWarning` and records which
budget tripped (:class:`BudgetExhaustion`, ``converged=False``), so a
caller that reuses the run's recorded revisions instead of running the
driver again (:func:`repro.ir.pipeline.replay_chain`) warns again.
"""

from __future__ import annotations

import dataclasses
import warnings
from collections import Counter
from typing import List, Optional, Sequence, Union

from ..ptx.module import Kernel
from .rewrite import Rewrite, RewritePattern, Rewriter
from .view import InstrWindow, RewriteContext


class RewriteBudgetWarning(UserWarning):
    """The driver hit a sweep/rewrite budget before reaching a fixpoint.

    Structured: carries the kernel name, the budget that tripped, and
    the application count, so callers (and tests) can filter on more
    than a message substring.
    """

    def __init__(self, kernel: str, budget: str, limit: int, applied: int):
        self.kernel = kernel
        self.budget = budget
        self.limit = limit
        self.applied = applied
        super().__init__(
            f"rewrite driver stopped before fixpoint on kernel "
            f"{kernel!r}: {budget} budget of {limit} exhausted after "
            f"{applied} applied rewrite(s)"
        )


@dataclasses.dataclass(frozen=True)
class BudgetExhaustion:
    """The budget that stopped a driver run short of its fixpoint: what
    its :class:`RewriteBudgetWarning` reports besides the kernel."""

    budget: str
    limit: int
    applied: int

    def warning(self, kernel: str) -> RewriteBudgetWarning:
        return RewriteBudgetWarning(
            kernel, self.budget, self.limit, self.applied
        )


@dataclasses.dataclass(frozen=True)
class RewriteApplication:
    """Provenance record of one applied rewrite; ``kernel`` is the
    revision it made."""

    pattern: str
    anchor: int
    before: str
    after: str
    sweep: int
    kernel: Kernel = dataclasses.field(repr=False)
    note: str = ""
    metadata: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class DriverResult:
    """Outcome of one driver run; ``context`` is the analysis context
    of the last kernel revision, and ``exhausted`` the budget that
    stopped the run, if one did."""

    context: RewriteContext
    applications: List[RewriteApplication]
    counters: "Counter[str]"
    sweeps: int
    exhausted: Optional[BudgetExhaustion] = None

    @property
    def kernel(self) -> Kernel:
        return self.context.kernel

    @property
    def converged(self) -> bool:
        return self.exhausted is None

    @property
    def applied(self) -> int:
        return len(self.applications)


def _render_span(ctx: RewriteContext, rewrite: Rewrite) -> str:
    parts = []
    n = len(ctx)
    for sp in rewrite.splices:
        parts.extend(
            str(ctx.instructions[p])
            for p in range(sp.start, min(sp.start + sp.length, n))
        )
    return "; ".join(parts)


def _render_replacement(rewrite: Rewrite) -> str:
    parts = []
    for sp in rewrite.splices:
        parts.extend(str(inst) for inst in sp.replacement)
    return "; ".join(parts)


class GreedyRewriteDriver:
    """Iterates a pattern set over a kernel to a fixpoint.

    ``max_sweeps`` bounds full program-order passes (a pass framework's
    "iterations"); ``max_rewrites`` bounds total applications and is
    the safety net against a pattern that matches its own output.
    """

    def __init__(
        self,
        patterns: Sequence[RewritePattern],
        max_sweeps: int = 32,
        max_rewrites: int = 100_000,
        verify: bool = False,
    ):
        self.patterns = list(patterns)
        self.max_sweeps = max_sweeps
        self.max_rewrites = max_rewrites
        self.verify = verify

    def run(self, start: Union[Kernel, RewriteContext]) -> DriverResult:
        """Rewrite ``start`` (a kernel, or the context of one) to a
        fixpoint."""
        if self.verify:
            # ``verify_pass`` is looked up on the package at each call,
            # so a wrapper installed there sees every check.
            from .. import verify as verify_mod
        ctx = RewriteContext.of(start)
        applications: List[RewriteApplication] = []
        counters: "Counter[str]" = Counter()
        sweeps = 0

        def exhausted(budget: str, limit: int) -> DriverResult:
            record = BudgetExhaustion(budget, limit, len(applications))
            warnings.warn(record.warning(ctx.kernel.name), stacklevel=3)
            return DriverResult(ctx, applications, counters, sweeps, record)

        while sweeps < self.max_sweeps:
            sweeps += 1
            pos = 0
            applied_in_sweep = 0
            while pos < len(ctx):
                rewrite: Optional[Rewrite] = None
                pattern: Optional[RewritePattern] = None
                window = InstrWindow(ctx, pos)
                for candidate in self.patterns:
                    rewrite = candidate.match(window, ctx)
                    if rewrite is not None:
                        pattern = candidate
                        break
                if rewrite is None or pattern is None:
                    pos += 1
                    continue
                if len(applications) >= self.max_rewrites:
                    return exhausted("rewrite", self.max_rewrites)
                before_text = _render_span(ctx, rewrite)
                new_ctx = RewriteContext(Rewriter(ctx.kernel).apply(rewrite))
                if self.verify:
                    verify_mod.verify_pass(
                        ctx,
                        new_ctx,
                        pattern.name,
                        compare_effects=pattern.verify_mode == "exact",
                    ).raise_if_errors()
                applications.append(
                    RewriteApplication(
                        pattern=pattern.name,
                        anchor=rewrite.anchor,
                        before=before_text,
                        after=_render_replacement(rewrite),
                        sweep=sweeps,
                        kernel=new_ctx.kernel,
                        note=rewrite.note,
                        metadata=dict(rewrite.metadata),
                    )
                )
                counters[pattern.name] += 1
                applied_in_sweep += 1
                ctx = new_ctx
                # Stay at the same position: erasures shift the next
                # instruction in, replacements re-offer harmlessly.
            if applied_in_sweep == 0:
                return DriverResult(ctx, applications, counters, sweeps)
        return exhausted("sweep", self.max_sweeps)
