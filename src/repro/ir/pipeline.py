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
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple, Type

from ..errors import ParseError
from ..ptx.module import Kernel
from .driver import DriverResult, GreedyRewriteDriver
from .rewrite import RewritePattern

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


@dataclasses.dataclass
class PipelineRunResult:
    """Outcome of running a pipeline spec over one kernel."""

    kernel: Kernel
    stages: List[Tuple[str, DriverResult]]

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
    kernel: Kernel, spec: str, verify: bool = False
) -> PipelineRunResult:
    """Run the pipeline named by ``spec`` (see :func:`parse_passes`).

    Each stage is one :class:`GreedyRewriteDriver` over that pass's
    pattern; with ``verify``, every individual rewrite is translation-
    validated (:func:`repro.verify.verify_pass`) in the pattern's
    declared mode, raising :class:`repro.errors.VerificationError` at
    the first bad rewrite; its diagnostics name the pass as their
    ``stage``.
    """
    registry = _registry()
    current = kernel
    stages: List[Tuple[str, DriverResult]] = []
    for name in parse_passes(spec):
        result = GreedyRewriteDriver([registry[name]()], verify=verify).run(
            current
        )
        stages.append((name, result))
        current = result.kernel
    return PipelineRunResult(kernel=current, stages=stages)
