"""The CRAT optimizer: coordinated register allocation + TLP (Figure 9).

Pipeline per kernel:

1. collect resource usage (Table 1),
2. obtain OptTLP — by profiling every TLP (paper's default) or by the
   static GTO analysis (*CRAT-static*, Section 7.6),
3. prune the (reg, TLP) staircase to a few candidates (Section 4.2),
4. register-allocate each candidate, spilling to spare shared memory
   when profitable (Algorithm 1; disabled for *CRAT-local*),
5. rank candidates with the TPSC model (Section 6) and pick the best,
6. simulate the winner for evaluation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Union

from ..analysis.gto_model import estimate_opt_tlp
from ..arch.config import GPUConfig
from ..arch.latency import measure_costs
from ..arch.occupancy import compute_occupancy, spare_shm_per_block
from ..engine import EvaluationEngine, config_signature, get_engine
from ..errors import classify_error
from ..ir.pipeline import (
    RewriteChain,
    pipeline_signature,
    replay_chain,
    run_pipeline,
)
from ..ir.view import RewriteContext
from ..ptx.module import Kernel
from ..regalloc.allocator import (
    AllocationResult,
    InsufficientRegistersError,
    allocate,
)
from ..sim.stats import SimResult
from .design_space import DesignPoint, prune
from .params import ResourceUsage, collect_resource_usage
from .throttling import (
    BaselineResult,
    allocation_key,
    opt_tlp_from_profile,
    run_baselines,
)
from .tpsc import ScoredPoint, score, select_best


@dataclasses.dataclass
class CRATResult:
    """Everything the evaluation needs about one optimized kernel."""

    usage: ResourceUsage
    opt_tlp: int
    opt_tlp_source: str
    candidates: List[ScoredPoint]
    chosen: ScoredPoint
    sim: SimResult
    baselines: Dict[str, BaselineResult]
    variant: str

    @property
    def reg(self) -> int:
        return self.chosen.point.reg

    @property
    def tlp(self) -> int:
        return self.chosen.point.tlp

    def speedup_vs(self, scheme: str) -> float:
        """Cycles(baseline) / cycles(CRAT) — >1 means CRAT is faster."""
        base = self.baselines[scheme].sim.cycles
        if not self.sim.cycles:
            raise ValueError(
                f"CRAT simulation of {self.chosen.point} recorded zero "
                "cycles; the speedup ratio is undefined (a kernel that "
                "executes at least one instruction always takes cycles)"
            )
        return base / self.sim.cycles


def run_passes(
    kernel: Union[Kernel, RewriteContext],
    spec: str,
    verify: bool,
    engine: EvaluationEngine,
) -> Kernel:
    """The output kernel of the normalized pipeline ``spec`` over
    ``kernel``, through ``engine``'s stage memo: the one pass path of
    ``crat`` and ``simulate`` jobs, verified or not.  ``kernel`` may be
    the input's :class:`~repro.ir.view.RewriteContext`, which the
    pipeline's first checks then read (a verified job passes the one
    :func:`~repro.verify.lint_kernel` filled).

    The memo keeps the run's :class:`~repro.ir.pipeline.RewriteChain`
    under ``("passes", fingerprint, spec)``.  A miss runs the pipeline
    (with ``verify``, each rewrite checked inline, so a bad one stops
    the run) and records its chain, which nothing checks a second
    time; an exception stores nothing.  A hit runs no pass:
    :func:`~repro.ir.pipeline.replay_chain` re-emits any budget warning
    and, with ``verify``, checks every recorded rewrite again, whoever
    stored the chain, so every request still runs every check.
    """
    ctx = RewriteContext.of(kernel)
    ran = False

    def compute() -> RewriteChain:
        nonlocal ran
        ran = True
        # The module global, looked up at each call, so a wrapper
        # installed on ``repro.core.crat.run_pipeline`` sees every run.
        return run_pipeline(ctx, spec, verify=verify).chain

    chain = engine.memo(("passes", ctx.kernel.fingerprint(), spec), compute)
    if ran:
        return chain.kernel
    return replay_chain(ctx, chain, verify=verify)


class CRATOptimizer:
    """Configurable CRAT pipeline.

    ``enable_shm_spill=False`` gives the paper's *CRAT-local* variant;
    ``opt_tlp_mode='static'`` gives *CRAT-static* (OptTLP from code
    analysis instead of profiling).  ``verify=True`` translation-
    validates the pipeline: the input kernel is dataflow-checked and
    every allocation the search evaluates — baselines and candidates
    alike — is independently rechecked by
    :func:`repro.verify.verify_allocation`, once per allocation object
    per :meth:`optimize` call (MaxTLP and OptTLP share one); any
    finding raises :class:`repro.errors.VerificationError`.

    ``passes`` names an optimization pipeline (``--passes`` spec, e.g.
    ``"copy-prop,dce,minreg-sched"``) run over the input kernel before
    resource collection and allocation (:func:`run_passes`, memoised
    like allocation); with ``verify`` every individual rewrite is
    additionally translation-validated, on a memo hit as on a miss.
    The spec is validated at construction (unknown names raise
    :class:`repro.errors.ParseError`), never at optimize time.
    """

    def __init__(
        self,
        config: GPUConfig,
        enable_shm_spill: bool = True,
        opt_tlp_mode: str = "profile",
        engine: Optional[EvaluationEngine] = None,
        verify: bool = False,
        passes: str = "",
    ):
        if opt_tlp_mode not in ("profile", "static"):
            raise ValueError("opt_tlp_mode must be 'profile' or 'static'")
        self.passes = pipeline_signature(passes)
        self.config = config
        self.enable_shm_spill = enable_shm_spill
        self.opt_tlp_mode = opt_tlp_mode
        self.verify = verify
        #: ``None`` resolves to the process-wide shared engine at use
        #: time, so ``repro.engine.configure()`` affects optimizers
        #: constructed earlier.
        self._engine = engine

    @property
    def engine(self) -> EvaluationEngine:
        return self._engine or get_engine()

    # ------------------------------------------------------------------
    def optimize(
        self,
        kernel: Kernel,
        default_reg: Optional[int] = None,
        grid_blocks: Optional[int] = None,
        param_sizes: Optional[Dict[str, int]] = None,
        baselines: Optional[Dict[str, BaselineResult]] = None,
    ) -> CRATResult:
        """Run the full pipeline on one kernel.

        Failures anywhere in the pipeline surface as the structured
        :mod:`repro.errors` taxonomy with the kernel name attached, so
        suite-level callers can isolate and report the app without
        losing the classification.
        """
        try:
            return self._optimize(
                kernel,
                default_reg=default_reg,
                grid_blocks=grid_blocks,
                param_sizes=param_sizes,
                baselines=baselines,
            )
        except Exception as err:
            raise classify_error(err, kernel=kernel.name)

    def _optimize(
        self,
        kernel: Kernel,
        default_reg: Optional[int] = None,
        grid_blocks: Optional[int] = None,
        param_sizes: Optional[Dict[str, int]] = None,
        baselines: Optional[Dict[str, BaselineResult]] = None,
    ) -> CRATResult:
        config = self.config
        if grid_blocks is None:
            grid_blocks = 2 * config.max_blocks_per_sm
        # One context of the input serves its lint and the pipeline's
        # first checks, so ``verify`` DF-checks the input once.
        source = RewriteContext(kernel)
        if self.verify:
            from ..verify import lint_kernel

            lint_kernel(source, stage="input").raise_if_errors()
        # The allocations rechecked so far in this call (``verify``).
        checked: List[AllocationResult] = []
        engine = self.engine
        if self.passes:
            with engine.span("passes"):
                kernel = run_passes(source, self.passes, self.verify, engine)
        # Allocation, resource usage and the pass pipeline are pure
        # functions of the kernel's printed form (plus the named
        # inputs), so the engine memoises them under its fingerprint.
        fingerprint = kernel.fingerprint()
        usage = engine.memo(
            ("usage", fingerprint, config_signature(config), default_reg),
            lambda: collect_resource_usage(
                kernel, config, default_reg=default_reg
            ),
        )
        if self.opt_tlp_mode == "profile":
            # The baselines' TLP sweep is the profile, so their span
            # nests in this one.
            with engine.span("opt_tlp"):
                baselines = self._baselines(
                    kernel, fingerprint, usage, grid_blocks, param_sizes,
                    baselines, checked,
                )
                # Pruning ceiling: the contention optimum over the whole
                # achievable TLP range, not just what the default
                # allocation can reach (see run_baselines).
                opt_tlp = opt_tlp_from_profile(baselines["opttlp"].profile)
        else:
            baselines = self._baselines(
                kernel, fingerprint, usage, grid_blocks, param_sizes,
                baselines, checked,
            )
            with engine.span("opt_tlp"):
                ceiling = compute_occupancy(
                    config,
                    min(usage.min_reg, usage.default_reg),
                    usage.shm_size,
                    usage.block_size,
                ).blocks
                opt_tlp = estimate_opt_tlp(
                    baselines["opttlp"].allocation.kernel,
                    config,
                    max(ceiling, usage.max_tlp),
                ).opt_tlp
        with engine.span("search"):
            candidates = prune(config, usage, opt_tlp)
            costs = measure_costs(config)
            scored: List[ScoredPoint] = []
            for point in candidates:
                allocation = self._allocate_point(
                    kernel, fingerprint, usage, point, checked
                )
                if allocation is None:
                    continue
                scored.append(
                    score(
                        point,
                        allocation,
                        config,
                        usage.block_size,
                        costs=costs,
                    )
                )
            if not scored:
                # Degenerate kernels (no register pressure range): fall
                # back to the throttling point with the default
                # allocation.
                fallback = DesignPoint(reg=usage.default_reg, tlp=opt_tlp)
                scored = [
                    score(
                        fallback,
                        baselines["opttlp"].allocation,
                        config,
                        usage.block_size,
                        costs=costs,
                    )
                ]
            chosen = select_best(scored)
        with engine.span("winner_sim"):
            sim = engine.simulate(
                chosen.allocation.kernel,
                config,
                chosen.point.tlp,
                grid_blocks,
                param_sizes,
            )
        return CRATResult(
            usage=usage,
            opt_tlp=opt_tlp,
            opt_tlp_source=self.opt_tlp_mode,
            candidates=scored,
            chosen=chosen,
            sim=sim,
            baselines=baselines,
            variant="crat" if self.enable_shm_spill else "crat-local",
        )

    def _baselines(
        self,
        kernel: Kernel,
        fingerprint: str,
        usage: ResourceUsage,
        grid_blocks: int,
        param_sizes: Optional[Dict[str, int]],
        baselines: Optional[Dict[str, BaselineResult]],
        checked: List[AllocationResult],
    ) -> Dict[str, BaselineResult]:
        """MaxTLP and OptTLP (run here unless the caller has them),
        their allocation rechecked under ``verify``; also the profiling
        source for OptTLP."""
        if baselines is None:
            with self.engine.span("baselines"):
                baselines = run_baselines(
                    kernel,
                    self.config,
                    usage,
                    grid_blocks,
                    param_sizes,
                    engine=self.engine,
                    fingerprint=fingerprint,
                )
        for scheme, baseline in baselines.items():
            self._maybe_verify(
                baseline.allocation, f"baseline:{scheme}", checked
            )
        return baselines

    # ------------------------------------------------------------------
    def _allocate_point(
        self,
        kernel: Kernel,
        fingerprint: str,
        usage: ResourceUsage,
        point: DesignPoint,
        checked: List[AllocationResult],
    ):
        """Allocate one candidate; returns None if it turns out infeasible."""
        spare = 0
        if self.enable_shm_spill:
            spare = spare_shm_per_block(self.config, usage.shm_size, point.tlp)
        try:
            # CRAT and CRAT-local share entries wherever spare is 0.
            allocation = self.engine.memo(
                allocation_key(fingerprint, point.reg, spare),
                lambda: allocate(
                    kernel,
                    point.reg,
                    spare_shm_bytes=spare,
                    enable_shm_spill=self.enable_shm_spill,
                ),
            )
        except InsufficientRegistersError:
            return None
        # Verify before the feasibility cut: an infeasible-but-miscompiled
        # candidate must still be reported, not silently discarded.
        self._maybe_verify(
            allocation, f"candidate:reg={point.reg}", checked
        )
        # The allocation must actually sustain the candidate TLP once
        # its own shared-memory spill stack is accounted for.
        total_shm = usage.shm_size + allocation.shm_spill_block_bytes
        occ = compute_occupancy(
            self.config,
            allocation.reg_per_thread,
            total_shm,
            usage.block_size,
        )
        if occ.blocks < point.tlp:
            return None
        return allocation

    def _maybe_verify(
        self,
        allocation: AllocationResult,
        stage: str,
        checked: List[AllocationResult],
    ) -> None:
        """Recheck one allocation when ``verify`` is on (else a no-op),
        unless ``checked`` already holds that object."""
        if not self.verify or any(allocation is done for done in checked):
            return
        checked.append(allocation)
        from ..verify import verify_allocation

        verify_allocation(allocation, stage=stage).raise_if_errors()
