"""Pass-pipeline registry and the ``--passes`` configuration surface.

Maps stable pass names (``copy-prop``, ``dce``, ``bypass``,
``mlp-sched``, ``minreg-sched``, ``unroll``) to rewrite-pattern
factories and runs a comma-separated pipeline spec through the
:class:`~repro.ir.driver.GreedyRewriteDriver`, one driver per stage.

:data:`PIPELINE_SCHEMA_VERSION` versions the *semantics* of the passes
(bump it whenever a pass's output changes for the same input), and
:func:`pipeline_signature` canonicalizes a spec for the stage memo keys
and the service single-flight signatures.  A simulation needs neither:
its cache key names the kernel the passes produced.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Tuple

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


@dataclasses.dataclass(frozen=True)
class PassSpec:
    """One registry entry: a named, self-describing pattern factory."""

    name: str
    description: str
    factory: Callable[[], RewritePattern]
    max_sweeps: int = 32


def _registry() -> Dict[str, PassSpec]:
    # Lazy import: repro.opt builds its passes on repro.ir, so the
    # registry must not import repro.opt at module-import time.
    from ..opt.bypass import BypassPattern
    from ..opt.copy_prop import CopyPropPattern
    from ..opt.dce import DCEPattern
    from ..opt.minreg import MinRegSchedPattern
    from ..opt.schedule import MlpSchedPattern
    from ..opt.unroll import UnrollPattern

    specs = [
        PassSpec(
            "copy-prop",
            "propagate register copies within basic blocks",
            CopyPropPattern,
        ),
        PassSpec(
            "dce",
            "delete definitions that are never observed",
            DCEPattern,
        ),
        PassSpec(
            "bypass",
            "mark streaming global loads .cg (L1 bypass)",
            BypassPattern,
        ),
        PassSpec(
            "mlp-sched",
            "hoist independent loads for memory-level parallelism",
            MlpSchedPattern,
        ),
        PassSpec(
            "minreg-sched",
            "reorder blocks to minimize MaxLive (register pressure)",
            MinRegSchedPattern,
        ),
        PassSpec(
            "unroll",
            "partially unroll counted innermost loops (factor 2)",
            UnrollPattern,
        ),
    ]
    return {spec.name: spec for spec in specs}


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
    """Canonical form of a pipeline spec for cache/dedup identities.

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


def run_pipeline(
    kernel: Kernel, spec: str, verify: bool = False
) -> PipelineRunResult:
    """Run the pipeline named by ``spec`` (see :func:`parse_passes`).

    Each stage is one :class:`GreedyRewriteDriver` over that pass's
    pattern; with ``verify``, every individual rewrite is translation-
    validated (:func:`repro.verify.verify_pass`) in the pattern's
    declared mode, raising :class:`repro.errors.VerificationError` at
    the first bad rewrite.
    """
    registry = _registry()
    current = kernel
    stages: List[Tuple[str, DriverResult]] = []
    for name in parse_passes(spec):
        pass_spec = registry[name]
        driver = GreedyRewriteDriver(
            [pass_spec.factory()],
            max_sweeps=pass_spec.max_sweeps,
            verify=verify,
        )
        result = driver.run(current)
        stages.append((name, result))
        current = result.kernel
    return PipelineRunResult(kernel=current, stages=stages)
