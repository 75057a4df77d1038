"""Pass-pipeline registry: the one way to run an optimization pass.

Maps stable pass names (``copy-prop``, ``dce``, ``bypass``,
``mlp-sched``, ``minreg-sched``, ``unroll``) to the rewrite-pattern
classes of :mod:`repro.opt`, each registered under its own
:attr:`~repro.ir.rewrite.RewritePattern.name`, and runs a
comma-separated pipeline spec through the
:class:`~repro.ir.driver.GreedyRewriteDriver`, one driver per stage.
The CLI's ``--passes``, the service jobs, ``repro verify --pipeline``,
the engine's stage memo and the golden ledger all go through
:func:`run_pipeline`.

:data:`PIPELINE_SCHEMA_VERSION` versions the *semantics* of the passes
(bump it whenever a pass's output changes for the same input), and
:func:`pipeline_signature` canonicalizes a spec for the stage memo keys
(and the service checks a request's spec with it before queueing).  A
simulation needs neither: its cache key names the kernel the passes
produced.

A run's :attr:`PipelineRunResult.chain` is what the stage memo keeps
for a (kernel fingerprint, spec) pair: the revision each rewrite made,
labelled with its pattern and verify mode (:class:`RewriteChain`).  On
a memo hit :func:`replay_chain` stands in for the run: it matches no
pattern, but a verified caller checks every recorded rewrite again.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Dict, List, Optional, Tuple, Type, Union

from ..errors import ParseError
from ..ptx.module import Kernel
from .driver import BudgetExhaustion, DriverResult, GreedyRewriteDriver
from .rewrite import RewritePattern
from .view import RewriteContext

#: Bump when any registered pass produces different output for the same
#: input kernel; folded into the engine cache schema
#: (``repro.engine.cache.cache_schema_version``) so stale entries miss.
PIPELINE_SCHEMA_VERSION = 1

#: The pipeline applied when ``--passes`` is not given: empty — the
#: kernel is evaluated exactly as written, matching the historical CLI
#: behaviour where the cleanup passes were opt-in library calls.
DEFAULT_PASSES = ""

#: Every registered pass, in the order ``repro verify --pipeline`` runs
#: them under per-rewrite translation validation; the golden ledger's
#: ``verified_rewrites`` section pins how many rewrites it applies.
VERIFIED_SPEC = "unroll,copy-prop,dce,mlp-sched,bypass,minreg-sched"


def _registry() -> Dict[str, Type[RewritePattern]]:
    # Lazy import: repro.opt builds its passes on repro.ir, so the
    # registry must not import repro.opt at module-import time.
    from ..opt.bypass import BypassPattern
    from ..opt.copy_prop import CopyPropPattern
    from ..opt.dce import DCEPattern
    from ..opt.minreg import MinRegSchedPattern
    from ..opt.schedule import MlpSchedPattern
    from ..opt.unroll import UnrollPattern

    return {
        pattern.name: pattern
        for pattern in (
            CopyPropPattern,
            DCEPattern,
            BypassPattern,
            MlpSchedPattern,
            MinRegSchedPattern,
            UnrollPattern,
        )
    }


def available_passes() -> List[str]:
    """Registered pass names, in registry (documentation) order."""
    return list(_registry().keys())


def parse_passes(spec: str) -> List[str]:
    """Split and validate a ``--passes`` spec.

    Accepts a comma-separated list of registered pass names (blank
    entries ignored, repeats allowed — a pipeline may legitimately run
    ``dce`` twice).  Unknown names raise :class:`repro.errors.ParseError`
    (CLI exit code 2): a typo must never silently evaluate the wrong
    pipeline.
    """
    registry = _registry()
    names: List[str] = []
    for part in (spec or "").split(","):
        name = part.strip()
        if not name:
            continue
        if name not in registry:
            raise ParseError(
                f"unknown optimization pass {name!r}; available: "
                + ", ".join(registry),
                stage="passes",
            )
        names.append(name)
    return names


def pipeline_signature(spec: str) -> str:
    """Canonical form of a pipeline spec for the stage memo keys.

    Whitespace and blank entries are normalized away; order and
    repetition are preserved (they change the output kernel).  Raises
    :class:`~repro.errors.ParseError` on unknown names, so a signature
    is always computed from a valid pipeline.
    """
    return ",".join(parse_passes(spec))


@dataclasses.dataclass(frozen=True)
class ChainStage:
    """One stage of a :class:`RewriteChain`: its pattern, which made
    every rewrite of the stage, that pattern's verify mode, the kernel
    revision each rewrite made, in order, and the budget that stopped
    the stage short of its fixpoint, if one did."""

    pattern: str
    verify_mode: str
    revisions: Tuple[Kernel, ...]
    exhausted: Optional[BudgetExhaustion]


@dataclasses.dataclass(frozen=True)
class RewriteChain:
    """The recorded rewrite chain of one pipeline run: what the stage
    memo keeps under ``("passes", fingerprint, spec)``.

    It holds kernels and labels only, never a :class:`RewriteContext`,
    a CFG, a DF report or a verdict, so one chain serves every later
    request for that input and spec, verified or not
    (:func:`replay_chain`).  ``kernel`` is the pipeline's output.
    """

    kernel: Kernel
    stages: Tuple[ChainStage, ...]


@dataclasses.dataclass
class PipelineRunResult:
    """Outcome of running a pipeline spec over one kernel."""

    kernel: Kernel
    stages: List[Tuple[str, DriverResult]]

    @property
    def chain(self) -> RewriteChain:
        """This run's rewrite chain, for the stage memo."""
        registry = _registry()
        return RewriteChain(
            kernel=self.kernel,
            stages=tuple(
                ChainStage(
                    pattern=name,
                    verify_mode=registry[name].verify_mode,
                    revisions=tuple(
                        app.kernel for app in result.applications
                    ),
                    exhausted=result.exhausted,
                )
                for name, result in self.stages
            ),
        )

    @property
    def total_applied(self) -> int:
        return sum(result.applied for _, result in self.stages)

    def metadata_total(self, key: str) -> int:
        """One per-rewrite metadata field (``moved``,
        ``rewritten_uses``) summed over every stage's rewrites."""
        return sum(
            app.metadata.get(key, 0)
            for _, result in self.stages
            for app in result.applications
        )


def run_pipeline(
    kernel: Union[Kernel, RewriteContext], spec: str, verify: bool = False
) -> PipelineRunResult:
    """Run the pipeline named by ``spec`` (see :func:`parse_passes`)
    over ``kernel``, or over the kernel of a context the caller already
    analysed.

    Each stage is one :class:`GreedyRewriteDriver` over that pass's
    pattern, started on the previous stage's last analysis context, so
    each kernel revision's analyses are computed once per call.  With
    ``verify``, every individual rewrite is translation-validated
    (:func:`repro.verify.verify_pass`) in the pattern's declared mode,
    raising :class:`repro.errors.VerificationError` at the first bad
    rewrite, before a later pattern matches on the broken kernel; its
    diagnostics name the pass as their ``stage``.  The result's
    :attr:`~PipelineRunResult.chain` records the run for the stage
    memo, where :func:`replay_chain` stands in for a second run.
    """
    registry = _registry()
    current = RewriteContext.of(kernel)
    stages: List[Tuple[str, DriverResult]] = []
    for name in parse_passes(spec):
        result = GreedyRewriteDriver([registry[name]()], verify=verify).run(
            current
        )
        stages.append((name, result))
        current = result.context
    return PipelineRunResult(kernel=current.kernel, stages=stages)


def replay_chain(
    kernel: Union[Kernel, RewriteContext],
    chain: RewriteChain,
    verify: bool = False,
) -> Kernel:
    """``run_pipeline(kernel, spec, verify).kernel`` from the ``chain``
    a run of ``spec`` over ``kernel`` (or a kernel of the same
    fingerprint) recorded, without matching or applying a pattern.

    With ``verify``, every recorded rewrite is checked again by
    :func:`repro.verify.verify_pass`, looked up on the package at each
    call, in its pattern's mode, on the input's context (``kernel``'s
    own, when it is one) and one fresh context per revision: the same
    checks, on the same kernels, as an inline verified run, so the
    first bad rewrite raises the
    :class:`~repro.errors.VerificationError` that run raises there.
    Every stage that stopped at a budget warns again, after its own
    rewrites, as the driver does.
    """
    if verify:
        from .. import verify as verify_mod
    before = RewriteContext.of(kernel)
    name = before.kernel.name
    for stage in chain.stages:
        if verify:
            for revision in stage.revisions:
                after = RewriteContext(revision)
                verify_mod.verify_pass(
                    before,
                    after,
                    stage.pattern,
                    compare_effects=stage.verify_mode == "exact",
                ).raise_if_errors()
                before = after
        if stage.exhausted is not None:
            warnings.warn(stage.exhausted.warning(name), stacklevel=2)
    return chain.kernel
