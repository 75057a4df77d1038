"""Experiment driver shared by the benchmark harness.

Evaluating one app through the full pipeline (baselines + profiling +
CRAT + CRAT-local) is expensive, and several figures slice the same
runs from different angles (Fig 13 plots speedups, Fig 14 the chosen
TLPs, Fig 15 register utilization, Fig 16 local accesses...).  The
driver therefore memoizes one :class:`AppEvaluation` per (app, config,
input) and lets every benchmark read from it.

Underneath that app-level memo, every simulation goes through the
shared :class:`repro.engine.EvaluationEngine`, whose content-addressed
cache is keyed by kernel fingerprint rather than app name: even after
:func:`clear_cache` drops the bench-layer memo, re-evaluating an app
re-runs only the (cheap) compiler passes — every design-point
simulation is an engine cache hit.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..arch.config import GPUConfig, get_config
from ..arch.occupancy import register_utilization
from ..core.crat import CRATOptimizer, CRATResult
from ..engine import get_engine
from ..errors import EXIT_PARTIAL, ReproError, classify_error
from ..core.throttling import BaselineResult
from ..workloads.suite import Workload, load_workload


@dataclasses.dataclass
class AppEvaluation:
    """Everything the figures need about one app on one configuration."""

    workload: Workload
    config: GPUConfig
    crat: CRATResult
    crat_local: CRATResult

    @property
    def abbr(self) -> str:
        return self.workload.abbr

    @property
    def baselines(self) -> Dict[str, BaselineResult]:
        return self.crat.baselines

    # ------------------------------------------------------------------
    # Normalized metrics (all normalized to OptTLP, as in Figure 13).
    # ------------------------------------------------------------------
    def speedup(self, scheme: str) -> float:
        """Speedup of ``scheme`` over the OptTLP baseline."""
        opttlp = self.baselines["opttlp"].sim.cycles
        if scheme == "crat":
            cycles = self.crat.sim.cycles
        elif scheme == "crat-local":
            cycles = self.crat_local.sim.cycles
        else:
            cycles = self.baselines[scheme].sim.cycles
        if not cycles:
            raise ValueError(
                f"{scheme} simulation of {self.abbr} recorded zero cycles; "
                "the speedup ratio is undefined"
            )
        return opttlp / cycles

    def register_utilization_of(self, scheme: str) -> float:
        if scheme == "crat":
            reg, tlp = self.crat.reg, self.crat.tlp
        else:
            base = self.baselines[scheme]
            reg, tlp = base.reg, base.tlp
        return register_utilization(
            self.config, reg, self.workload.kernel.block_size, tlp
        )

    def tlp_of(self, scheme: str) -> int:
        if scheme == "crat":
            return self.crat.tlp
        if scheme == "crat-local":
            return self.crat_local.tlp
        return self.baselines[scheme].tlp

    def local_insts_of(self, scheme: str) -> int:
        if scheme == "crat":
            return self.crat.sim.local_insts
        if scheme == "crat-local":
            return self.crat_local.sim.local_insts
        return self.baselines[scheme].sim.local_insts

    def energy_of(self, scheme: str) -> float:
        if scheme == "crat":
            return self.crat.sim.energy_nj
        if scheme == "crat-local":
            return self.crat_local.sim.energy_nj
        return self.baselines[scheme].sim.energy_nj


@functools.lru_cache(maxsize=None)
def evaluate_app(
    abbr: str,
    config_name: str = "fermi",
    input_scale: float = 1.0,
    verify: bool = False,
    passes: str = "",
) -> AppEvaluation:
    """Run the whole pipeline for one app (memoized).

    ``verify`` is part of the memo key on purpose: a validated and an
    unvalidated evaluation are different runs (the former may raise a
    :class:`repro.errors.VerificationError` the latter would not).
    ``passes`` (a ``--passes`` pipeline spec) likewise: pre-allocation
    rewrites change the kernel the whole pipeline evaluates.
    """
    config = get_config(config_name)
    workload = load_workload(abbr, input_scale)
    engine = get_engine()
    with engine.span(f"evaluate:{abbr}"):
        optimizer = CRATOptimizer(
            config, enable_shm_spill=True, verify=verify, passes=passes
        )
        crat = optimizer.optimize(
            workload.kernel,
            default_reg=workload.default_reg,
            grid_blocks=workload.grid_blocks,
            param_sizes=workload.param_sizes,
        )
        local_optimizer = CRATOptimizer(
            config, enable_shm_spill=False, verify=verify, passes=passes
        )
        crat_local = local_optimizer.optimize(
            workload.kernel,
            default_reg=workload.default_reg,
            grid_blocks=workload.grid_blocks,
            param_sizes=workload.param_sizes,
            baselines=crat.baselines,
        )
    return AppEvaluation(
        workload=workload, config=config, crat=crat, crat_local=crat_local
    )


@functools.lru_cache(maxsize=None)
def evaluate_app_static(abbr: str, config_name: str = "fermi") -> CRATResult:
    """CRAT-static: OptTLP from code analysis instead of profiling."""
    config = get_config(config_name)
    workload = load_workload(abbr)
    optimizer = CRATOptimizer(
        config, enable_shm_spill=True, opt_tlp_mode="static"
    )
    return optimizer.optimize(
        workload.kernel,
        default_reg=workload.default_reg,
        grid_blocks=workload.grid_blocks,
        param_sizes=workload.param_sizes,
    )


# ----------------------------------------------------------------------
# Fault-isolated suite execution (``repro suite``).
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class AppFailure:
    """One app the suite could not evaluate (the suite still finishes)."""

    abbr: str
    kind: str  # taxonomy class name (ParseError, SimulationError...)
    message: str
    exit_code: int

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class SuiteReport:
    """Outcome of one fault-isolated suite run.

    ``evaluations`` holds every app that completed; ``failures`` the
    structured record of every app that did not.  The CLI maps this to
    its documented exit codes: 0 when everything succeeded, 5 when the
    suite is partial, and the first failure's taxonomy code when *no*
    app survived (a total failure is almost always one systemic cause).
    """

    config_name: str
    evaluations: Dict[str, object]
    failures: List[AppFailure]
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        if not self.failures:
            return 0
        if self.evaluations:
            return EXIT_PARTIAL
        return self.failures[0].exit_code

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready failure report (the ``--report-json`` payload)."""
        return {
            "config": self.config_name,
            "completed": sorted(self.evaluations),
            "failed": [f.to_dict() for f in self.failures],
            "seconds": self.seconds,
            "exit_code": self.exit_code,
        }


def run_suite(
    abbrs: Sequence[str],
    config_name: str = "fermi",
    evaluate: Optional[Callable[[str, str], object]] = None,
    on_app: Optional[Callable[[str, Optional[AppFailure]], None]] = None,
) -> SuiteReport:
    """Evaluate a list of apps with per-app fault isolation.

    One failing app — unparseable PTX, an infeasible allocation, a
    kernel whose functional trace or strict simulation raised — is
    recorded as a structured :class:`AppFailure` and the suite moves
    on, so a 22-app run always produces its best available answer plus
    a faithful failure report instead of dying on app 3 with a
    traceback.  ``on_app`` is invoked after each app (progress hook);
    ``evaluate`` defaults to :func:`evaluate_app`.
    """
    evaluate = evaluate or evaluate_app
    evaluations: Dict[str, object] = {}
    failures: List[AppFailure] = []
    t0 = time.perf_counter()
    for abbr in abbrs:
        failure: Optional[AppFailure] = None
        try:
            evaluations[abbr] = evaluate(abbr, config_name)
        except Exception as err:  # isolate *everything* per app
            classified = classify_error(err, app=abbr)
            failure = AppFailure(
                abbr=abbr,
                kind=classified.kind,
                message=str(classified),
                exit_code=classified.exit_code,
            )
            failures.append(failure)
        if on_app:
            on_app(abbr, failure)
    return SuiteReport(
        config_name=config_name,
        evaluations=evaluations,
        failures=failures,
        seconds=time.perf_counter() - t0,
    )


def write_report_json(report: SuiteReport, path: str) -> None:
    """Persist a suite failure report (``--report-json PATH``)."""
    with open(path, "w") as handle:
        json.dump(report.to_dict(), handle, indent=2)
        handle.write("\n")


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values]
    if not vals:
        raise ValueError("geomean of empty sequence")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def clear_cache() -> None:
    """Drop the bench-layer memo (tests that tweak configs use this).

    Only the app-level :class:`AppEvaluation` memo is dropped; the
    engine's content-addressed simulation cache stays warm, so a
    re-evaluation repeats the compiler work but zero simulations.
    (That is safe even for tweaked configs: engine keys cover the full
    configuration content, not just its name.)  Use
    ``repro.engine.get_engine().clear()`` to also drop simulations.
    """
    evaluate_app.cache_clear()
    evaluate_app_static.cache_clear()
