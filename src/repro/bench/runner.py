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
import os
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..arch.config import GPUConfig, get_config
from ..arch.occupancy import register_utilization
from ..core.crat import CRATOptimizer, CRATResult
from ..engine import EvaluationEngine, FastPathEvent, FastPathPolicy, get_engine
from ..engine.engine import CHECKPOINT_DIR_ENV
from ..errors import EXIT_PARTIAL, ReproError, classify_error
from ..core.throttling import BaselineResult
from ..workloads.suite import Workload, full_suite, load_workload


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
    with engine.stage(f"evaluate:{abbr}"):
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
def evaluate_app_static(
    abbr: str, config_name: str = "fermi", hit_ratio: float = 0.6
) -> CRATResult:
    """CRAT-static: OptTLP from code analysis instead of profiling."""
    config = get_config(config_name)
    workload = load_workload(abbr)
    optimizer = CRATOptimizer(
        config, enable_shm_spill=True, opt_tlp_mode="static", hit_ratio=hit_ratio
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


def _journal_path() -> Optional[str]:
    directory = os.environ.get(CHECKPOINT_DIR_ENV) or None
    if not directory:
        return None
    return os.path.join(directory, "journal.jsonl")


def _journal_app(abbr: str, config_name: str, status: str, detail: str = "") -> None:
    """Append one app-completion record to the checkpoint journal.

    Purely informational (the design-point checkpoint store is what
    makes resumption cheap); gives an interrupted run a human-readable
    ledger of how far it got.
    """
    path = _journal_path()
    if not path:
        return
    record = {"app": abbr, "config": config_name, "status": status}
    if detail:
        record["detail"] = detail
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    except OSError:
        pass  # journaling is best-effort


def run_suite(
    abbrs: Sequence[str],
    config_name: str = "fermi",
    evaluate: Optional[Callable[[str, str], object]] = None,
    on_app: Optional[Callable[[str, Optional[AppFailure]], None]] = None,
) -> SuiteReport:
    """Evaluate a list of apps with per-app fault isolation.

    One failing app — unparseable PTX, an infeasible allocation, a
    simulation that exhausts the supervisor's retry budget — is
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
            _journal_app(abbr, config_name, "ok")
        except Exception as err:  # isolate *everything* per app
            classified = classify_error(err, app=abbr)
            failure = AppFailure(
                abbr=abbr,
                kind=classified.kind,
                message=str(classified),
                exit_code=classified.exit_code,
            )
            failures.append(failure)
            _journal_app(abbr, config_name, "failed", detail=str(classified))
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


# ----------------------------------------------------------------------
# Two-tier evaluation comparison (``repro bench --fastpath``).
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class FastPathAppRow:
    """One app's exact-vs-fast-path pipeline comparison."""

    abbr: str
    exact_sims: int  # profile-stage simulations, exact pipeline
    fast_sims: int  # profile-stage simulations, two-tier pipeline
    exact_point: Tuple[int, int]  # CRAT's chosen (reg, TLP)
    fast_point: Tuple[int, int]
    exact_local_point: Tuple[int, int]  # CRAT-local's chosen (reg, TLP)
    fast_local_point: Tuple[int, int]
    #: Worst signed winner-cycle drift across the two variants
    #: (``fast/exact - 1``; 0.0 when the winners match).
    cycle_drift: float
    #: Rank concordance between fast-path scores and simulated cycles
    #: over the points both tiers saw (from the FastPathEvent).
    agreement: float

    @property
    def match(self) -> bool:
        """Did both CRAT variants choose the exact pipeline's winner?"""
        return (
            self.exact_point == self.fast_point
            and self.exact_local_point == self.fast_local_point
        )

    @property
    def sims_saved(self) -> int:
        return self.exact_sims - self.fast_sims

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready row for ``repro bench --fastpath --report-json``
        — per-app rank agreement included."""
        data = dataclasses.asdict(self)
        data["exact_point"] = list(self.exact_point)
        data["fast_point"] = list(self.fast_point)
        data["exact_local_point"] = list(self.exact_local_point)
        data["fast_local_point"] = list(self.fast_local_point)
        data["match"] = self.match
        data["sims_saved"] = self.sims_saved
        data["rank_agreement"] = round(self.agreement, 4)
        return data


@dataclasses.dataclass
class FastPathComparison:
    """Suite-level result of an exact-vs-fast-path comparison run."""

    config_name: str
    top_k: int
    refine: bool
    rows: List[FastPathAppRow]
    exact_seconds: float
    fast_seconds: float

    @property
    def exact_sims(self) -> int:
        return sum(r.exact_sims for r in self.rows)

    @property
    def fast_sims(self) -> int:
        return sum(r.fast_sims for r in self.rows)

    @property
    def sim_ratio(self) -> float:
        """How many times fewer profile-stage simulations the fast path ran."""
        return self.exact_sims / self.fast_sims if self.fast_sims else math.inf

    @property
    def mismatches(self) -> List[str]:
        return [r.abbr for r in self.rows if not r.match]

    @property
    def max_drift(self) -> float:
        return max((abs(r.cycle_drift) for r in self.rows), default=0.0)

    def table(self) -> str:
        """Human-readable report (what ``repro bench --fastpath`` prints)."""
        mode = "refine" if self.refine else "screen-only"
        lines = [
            f"two-tier evaluation: top_k={self.top_k}, {mode}, "
            f"config={self.config_name}",
            f"{'app':<6} {'sims':>9}  {'exact winner':>14} "
            f"{'fast winner':>14} {'match':>5} {'drift':>7} {'agree':>6}",
        ]
        for r in self.rows:
            lines.append(
                f"{r.abbr:<6} {r.exact_sims:>4}->{r.fast_sims:<4} "
                f"{_point_label(r.exact_point, r.exact_local_point):>14} "
                f"{_point_label(r.fast_point, r.fast_local_point):>14} "
                f"{'yes' if r.match else 'NO':>5} "
                f"{r.cycle_drift:>+6.1%} {r.agreement:>6.2f}"
            )
        matches = len(self.rows) - len(self.mismatches)
        saved = 1 - self.fast_seconds / self.exact_seconds if self.exact_seconds else 0.0
        lines.append(
            f"profile sims {self.exact_sims} -> {self.fast_sims} "
            f"({self.sim_ratio:.2f}x fewer); wall-clock "
            f"{self.exact_seconds:.2f}s -> {self.fast_seconds:.2f}s "
            f"({saved:.0%} saved)"
        )
        lines.append(
            f"winner match {matches}/{len(self.rows)}"
            + (
                f"; mismatches {', '.join(self.mismatches)} "
                f"(max winner-cycle drift {self.max_drift:+.1%})"
                if self.mismatches
                else ""
            )
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """Structured report (``--report-json``): suite aggregates plus
        one row per app, including each app's rank agreement."""
        matches = len(self.rows) - len(self.mismatches)
        return {
            "mode": "fastpath",
            "config": self.config_name,
            "top_k": self.top_k,
            "refine": self.refine,
            "exact_sims": self.exact_sims,
            "fast_sims": self.fast_sims,
            "sim_ratio": round(self.sim_ratio, 3)
            if self.fast_sims
            else None,
            "winner_matches": matches,
            "apps_compared": len(self.rows),
            "mismatches": self.mismatches,
            "max_cycle_drift": round(self.max_drift, 5),
            "exact_seconds": round(self.exact_seconds, 3),
            "fast_seconds": round(self.fast_seconds, 3),
            "apps": [r.to_dict() for r in self.rows],
        }


def _point_label(point: Tuple[int, int], local_point: Tuple[int, int]) -> str:
    label = f"r{point[0]} t{point[1]}"
    if local_point != point:
        label += f"|t{local_point[1]}"
    return label


def _run_pipeline(
    workload: Workload,
    config: GPUConfig,
    engine: EvaluationEngine,
    fastpath: Optional[FastPathPolicy],
    verify: bool = False,
) -> Tuple[CRATResult, CRATResult]:
    """CRAT + CRAT-local sharing baselines, on an explicit engine."""
    crat = CRATOptimizer(
        config, enable_shm_spill=True, engine=engine, fastpath=fastpath,
        verify=verify,
    ).optimize(
        workload.kernel,
        default_reg=workload.default_reg,
        grid_blocks=workload.grid_blocks,
        param_sizes=workload.param_sizes,
    )
    crat_local = CRATOptimizer(
        config, enable_shm_spill=False, engine=engine, fastpath=fastpath,
        verify=verify,
    ).optimize(
        workload.kernel,
        default_reg=workload.default_reg,
        grid_blocks=workload.grid_blocks,
        param_sizes=workload.param_sizes,
        baselines=crat.baselines,
    )
    return crat, crat_local


def compare_fastpath(
    abbrs: Optional[Sequence[str]] = None,
    config_name: str = "fermi",
    top_k: int = 1,
    refine: bool = True,
    input_scale: float = 1.0,
    jobs: Optional[int] = None,
    verify: bool = False,
) -> FastPathComparison:
    """Run every app through both pipelines and diff the outcomes.

    The exact pipeline (fast path disabled) and the two-tier pipeline
    each run on a **fresh, memory-only** engine so the simulation
    counts and wall-clock times are honest — a warm shared cache would
    let the second run coast on the first run's work.  Returns per-app
    rows plus suite totals; ``repro bench --fastpath`` prints
    :meth:`FastPathComparison.table`.
    """
    config = get_config(config_name)
    if abbrs is None:
        abbrs = [w.abbr for w in full_suite()]
    workloads = [load_workload(a, input_scale) for a in abbrs]
    jobs = jobs if jobs is not None else get_engine().jobs
    policy = FastPathPolicy(top_k=top_k, refine=refine)

    def run_mode(fastpath: Optional[FastPathPolicy]):
        # disk_cache="" forces memory-only even when REPRO_CACHE_DIR is
        # set: the comparison must actually run its simulations.
        engine = EvaluationEngine(jobs=jobs, disk_cache="")
        outcomes = {}
        t0 = time.perf_counter()
        for workload in workloads:
            crat, crat_local = _run_pipeline(
                workload, config, engine, fastpath, verify=verify
            )
            agreement = 1.0
            for event in reversed(engine.events):
                if (
                    isinstance(event, FastPathEvent)
                    and event.kernel == workload.kernel.name
                ):
                    agreement = event.agreement
                    break
            outcomes[workload.abbr] = (crat, crat_local, agreement)
        return outcomes, time.perf_counter() - t0

    exact, exact_seconds = run_mode(None)
    fast, fast_seconds = run_mode(policy)

    rows = []
    for workload in workloads:
        e_crat, e_local, _ = exact[workload.abbr]
        f_crat, f_local, agreement = fast[workload.abbr]
        drift = max(
            f_crat.sim.cycles / e_crat.sim.cycles - 1.0,
            f_local.sim.cycles / e_local.sim.cycles - 1.0,
            key=abs,
        )
        rows.append(
            FastPathAppRow(
                abbr=workload.abbr,
                exact_sims=len(e_crat.baselines["opttlp"].profile),
                fast_sims=len(f_crat.baselines["opttlp"].profile),
                exact_point=(e_crat.reg, e_crat.tlp),
                fast_point=(f_crat.reg, f_crat.tlp),
                exact_local_point=(e_local.reg, e_local.tlp),
                fast_local_point=(f_local.reg, f_local.tlp),
                cycle_drift=drift,
                agreement=agreement,
            )
        )
    return FastPathComparison(
        config_name=config_name,
        top_k=top_k,
        refine=refine,
        rows=rows,
        exact_seconds=exact_seconds,
        fast_seconds=fast_seconds,
    )


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
