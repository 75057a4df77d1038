"""The shared evaluation engine: cached, parallel, instrumented simulation.

Every stage of the CRAT pipeline — exhaustive TLP profiling, baseline
evaluation, candidate scoring, the final winner run, the latency
micro-benchmarks — ultimately calls the same two primitives: generate
functional traces for a kernel, then replay them through the timing
model at some TLP.  Historically each call site did both by hand, so a
full suite run re-derived identical traces and re-simulated identical
design points many times over.

:class:`EvaluationEngine` is the single owner of those primitives:

* **Content-addressed caching** — results are keyed by ``(kernel
  fingerprint, config, grid_blocks, param_sizes, tlp, scheduler)``;
  traces by the same key minus the TLP/scheduler.  An optional on-disk
  store (``REPRO_CACHE_DIR``) persists results across processes.
* **Parallel fan-out** — :meth:`simulate_many` runs independent design
  points on a process pool (``REPRO_JOBS`` / ``--jobs``), bit-identical
  to the serial path because the simulator is deterministic.
* **Instrumentation** — every trace generation, simulation, batch and
  named pipeline stage is recorded as a typed event with timings and
  hit/miss counters (:mod:`repro.engine.events`), dumpable as JSON.

Call sites share one engine via :func:`get_engine` so caching composes
across layers (the bench driver, the optimizer, the baselines and the
micro-benchmarks all feed the same cache).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..arch.config import GPUConfig
from ..errors import ReproError, classify_error
from ..ir.pipeline import pipeline_signature
from ..ptx.module import Kernel
from ..sim.batch import simulate_traces_batched
from ..sim.executor import BlockTrace
from ..sim.gpu import simulate_traces, trace_grid
from ..sim.stats import SimResult
from . import faults
from .cache import SimKey, SimResultCache, config_signature, key_digest, make_sim_key
from .events import (
    BatchEvent,
    BatchSimEvent,
    CacheCorruptEvent,
    CheckpointEvent,
    DegradeEvent,
    EngineEvent,
    EngineStats,
    FastPathEvent,
    SimulationEvent,
    StageEvent,
    TraceEvent,
    event_to_dict,
)
from .fastpath import (
    FastPathEvaluator,
    FastPathPolicy,
    estimate_sim_result,
    rank_agreement,
)
from .parallel import (
    SupervisorPolicy,
    TaskOutcome,
    resolve_jobs,
    run_simulations,
    run_supervised,
)

#: Environment variable naming the checkpoint journal directory.
CHECKPOINT_DIR_ENV = "REPRO_CHECKPOINT_DIR"


@dataclasses.dataclass(frozen=True)
class SimRequest:
    """One design point to evaluate: a kernel at a TLP on a config."""

    kernel: Kernel
    config: GPUConfig
    tlp: int
    grid_blocks: Optional[int] = None
    param_sizes: Optional[Dict[str, int]] = None
    scheduler: str = "gto"

    def resolved_grid(self) -> int:
        if self.grid_blocks is not None:
            return self.grid_blocks
        return 2 * self.config.max_blocks_per_sm


class EvaluationEngine:
    """Single owner of trace generation and timing simulation."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        disk_cache: Optional[str] = None,
        max_events: int = 100_000,
        fastpath: Optional[FastPathPolicy] = None,
        supervisor: Optional[SupervisorPolicy] = None,
        checkpoint_dir: Optional[str] = None,
        cache_max_entries: Optional[int] = None,
        pipeline: str = "",
        batch: bool = True,
    ):
        self.jobs = resolve_jobs(jobs)
        #: Route multi-point groups through the batched SoA core
        #: (:class:`repro.sim.batch.BatchedSimulator`) by default.
        #: Bit-identical to the scalar path; ``--no-batch`` turns it
        #: off, and an active fault-injection plan disables it for the
        #: affected run (faults are exercised by the supervised pool).
        self.batch = batch
        #: The active ``--passes`` signature; folded into every cache
        #: key so results simulated under different pipelines never
        #: alias (see :func:`repro.engine.cache.make_sim_key`).
        self.pipeline = pipeline_signature(pipeline)
        self._sim_cache = SimResultCache(
            disk_cache,
            on_corrupt=self._on_cache_corrupt,
            max_entries=cache_max_entries,
        )
        self._trace_cache: Dict[Tuple, List[BlockTrace]] = {}
        self.stats = EngineStats()
        self.events: List[EngineEvent] = []
        self._max_events = max_events
        #: Tier-1 screening policy; ``top_k=None`` means every design
        #: point simulates (the exact, pre-fast-path pipeline).
        self.fastpath = fastpath or FastPathPolicy()
        #: Retry/timeout budget for supervised batches
        #: (``REPRO_TASK_TIMEOUT`` / ``REPRO_TASK_RETRIES``).
        self.supervisor = supervisor or SupervisorPolicy.from_env()
        #: Optional checkpoint journal: completed design points are
        #: persisted (content-keyed, like the sim cache) so an
        #: interrupted sweep resumes without re-simulating them.
        if checkpoint_dir is None:
            checkpoint_dir = os.environ.get(CHECKPOINT_DIR_ENV) or None
        self._checkpoint: Optional[SimResultCache] = (
            SimResultCache(checkpoint_dir, on_corrupt=self._on_cache_corrupt)
            if checkpoint_dir
            else None
        )

    def _on_cache_corrupt(self, path: str, reason: str) -> None:
        self.stats.cache_corrupt += 1
        self._emit(CacheCorruptEvent(path=path, reason=reason))

    @property
    def checkpoint_dir(self) -> Optional[str]:
        # NB: ``is not None`` — an empty SimResultCache is falsy
        # (it defines ``__len__``).
        if self._checkpoint is not None:
            return self._checkpoint.disk_dir
        return None

    def set_checkpoint_dir(self, directory: Optional[str]) -> None:
        """Enable (or disable, with ``None``) the checkpoint journal."""
        self._checkpoint = (
            SimResultCache(directory, on_corrupt=self._on_cache_corrupt)
            if directory
            else None
        )

    # ------------------------------------------------------------------
    # Instrumentation plumbing.
    # ------------------------------------------------------------------
    def _emit(self, event: EngineEvent) -> None:
        if getattr(event, "kind", "") == "fault":
            self.stats.faults_injected += 1
        if len(self.events) < self._max_events:
            self.events.append(event)

    def record_stage(self, name: str, seconds: float) -> None:
        """Account a pipeline stage that the caller timed itself."""
        self.stats.record_stage(name, seconds)
        self._emit(StageEvent(name=name, seconds=seconds))

    @contextlib.contextmanager
    def stage(self, name: str):
        """Time a named pipeline stage (``with engine.stage("search"):``)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.record_stage(name, time.perf_counter() - t0)

    # ------------------------------------------------------------------
    # Trace generation (the expensive functional step).
    # ------------------------------------------------------------------
    def traces_for(
        self,
        kernel: Kernel,
        config: GPUConfig,
        grid_blocks: int,
        param_sizes: Optional[Dict[str, int]] = None,
        fingerprint: Optional[str] = None,
    ) -> List[BlockTrace]:
        """Functional traces for a kernel/grid, cached by content."""
        if fingerprint is None:
            fingerprint = kernel.fingerprint()
        params = tuple(sorted((param_sizes or {}).items()))
        key = (fingerprint, config_signature(config), grid_blocks, params)
        traces = self._trace_cache.get(key)
        if traces is not None:
            self.stats.trace_hits += 1
            self._emit(
                TraceEvent(
                    key=key_digest(key),
                    kernel=kernel.name,
                    grid_blocks=grid_blocks,
                    cached=True,
                    seconds=0.0,
                )
            )
            return traces
        t0 = time.perf_counter()
        traces = trace_grid(kernel, config, grid_blocks, param_sizes)
        seconds = time.perf_counter() - t0
        self._trace_cache[key] = traces
        self.stats.trace_misses += 1
        self.stats.trace_seconds += seconds
        self._emit(
            TraceEvent(
                key=key_digest(key),
                kernel=kernel.name,
                grid_blocks=grid_blocks,
                cached=False,
                seconds=seconds,
            )
        )
        return traces

    # ------------------------------------------------------------------
    # Single-point simulation.
    # ------------------------------------------------------------------
    def simulate(
        self,
        kernel: Kernel,
        config: GPUConfig,
        tlp: int,
        grid_blocks: Optional[int] = None,
        param_sizes: Optional[Dict[str, int]] = None,
        scheduler: str = "gto",
    ) -> SimResult:
        """Simulate one design point, through the cache."""
        request = SimRequest(kernel, config, tlp, grid_blocks, param_sizes, scheduler)
        return self.simulate_many([request])[0]

    # ------------------------------------------------------------------
    # Batched simulation with parallel fan-out.
    # ------------------------------------------------------------------
    def simulate_many(self, requests: Sequence[SimRequest]) -> List[SimResult]:
        """Evaluate a batch of independent design points (strict).

        Cache hits are served immediately; the remaining points run
        under the supervisor on the process pool when ``jobs > 1``
        (serial otherwise).  Results come back in request order and are
        bit-identical to the serial path.  A point that still has no
        result after the supervisor's retry budget raises its
        classified :class:`~repro.errors.ReproError`; callers that can
        degrade per-point use :meth:`simulate_outcomes`.
        """
        outcomes = self.simulate_outcomes(requests)
        for outcome in outcomes:
            if isinstance(outcome, ReproError):
                raise outcome
        return outcomes  # type: ignore[return-value]

    def evaluate_batch(self, requests: Sequence[SimRequest]) -> List[SimResult]:
        """Evaluate a multi-point sweep through the batched SoA core.

        Identical results to :meth:`simulate_many` (the batched core is
        bit-identical to the scalar simulator and any group it cannot
        take falls back to the supervised path), but the batched route
        is forced even when the engine default (:attr:`batch`) is off.
        Strict like :meth:`simulate_many`: the first failed point
        raises its classified error.
        """
        outcomes = self.simulate_outcomes(requests, batch=True)
        for outcome in outcomes:
            if isinstance(outcome, ReproError):
                raise outcome
        return outcomes  # type: ignore[return-value]

    def _run_batched(
        self,
        tasks: List[Tuple[List[BlockTrace], GPUConfig, int, str]],
        outcomes: List[Optional[TaskOutcome]],
    ) -> List[int]:
        """Evaluate batchable groups of ``tasks`` with the SoA core.

        Groups share (traces, config, scheduler) and differ only in
        TLP — the shape of a profile sweep.  Fills ``outcomes`` for
        every position it evaluated and returns the positions it left
        for the supervised pool: singleton groups (packing amortizes
        nothing) and any group whose batched run raised (the supervised
        path retries those with its usual budget).
        """
        groups: Dict[Tuple[int, str, str], List[int]] = {}
        for pos, (traces, config, _, scheduler) in enumerate(tasks):
            key = (id(traces), scheduler, config_signature(config))
            groups.setdefault(key, []).append(pos)
        leftover: List[int] = []
        for positions in groups.values():
            if len(positions) < 2:
                leftover.extend(positions)
                continue
            traces, config, _, scheduler = tasks[positions[0]]
            tlps = [tasks[p][2] for p in positions]
            t0 = time.perf_counter()
            try:
                results = simulate_traces_batched(
                    traces, config, tlps, scheduler=scheduler
                )
            except Exception:
                # Whatever went wrong, the supervised scalar path is
                # the retry rung — it owns the failure from here.
                leftover.extend(positions)
                continue
            for p, result in zip(positions, results):
                outcomes[p] = TaskOutcome(result=result, attempts=1)
            self.stats.batched_groups += 1
            self.stats.batched_points += len(positions)
            self._emit(
                BatchSimEvent(
                    points=len(positions),
                    scheduler=scheduler,
                    seconds=time.perf_counter() - t0,
                )
            )
        leftover.sort()
        return leftover

    def simulate_outcomes(
        self,
        requests: Sequence[SimRequest],
        batch: Optional[bool] = None,
    ) -> List[Union[SimResult, ReproError]]:
        """Evaluate a batch, reporting per-point failures in-band.

        Each slot of the returned list is either the point's
        :class:`SimResult` or the classified error its supervised
        execution ended with (timeouts included).  Successful points
        are cached (and journaled to the checkpoint store when one is
        configured); failed points are not.

        ``batch`` overrides the engine's :attr:`batch` default for this
        call.  When batching applies, groups of two or more points that
        share traces, config and scheduler run in-process through the
        bit-identical SoA core (exempt from per-task timeouts, like the
        serial path); everything else — including every point of a run
        with an active fault-injection plan, which must exercise the
        supervised machinery — goes to the supervised pool.
        """
        t0 = time.perf_counter()
        results: List[Optional[Union[SimResult, ReproError]]] = (
            [None] * len(requests)
        )
        keys: List[SimKey] = []
        pending: List[int] = []
        batch_hits = 0
        fingerprints: Dict[int, str] = {}
        for i, req in enumerate(requests):
            fp = fingerprints.setdefault(id(req.kernel), req.kernel.fingerprint())
            key = make_sim_key(
                fp, req.config, req.resolved_grid(), req.param_sizes,
                req.tlp, req.scheduler, pipeline=self.pipeline,
            )
            keys.append(key)
            cached, source = self._sim_cache.get(key)
            if cached is None and self._checkpoint is not None:
                cached, ckpt_source = self._checkpoint.get(key)
                if cached is not None:
                    source = "checkpoint"
                    # Promote into the primary cache so later lookups
                    # are plain memory hits.
                    self._sim_cache.put(key, cached)
                    self.stats.checkpoint_hits += 1
                    self._emit(
                        CheckpointEvent(
                            key=key_digest(key),
                            kernel=req.kernel.name,
                            tlp=req.tlp,
                        )
                    )
            if cached is not None:
                results[i] = cached
                batch_hits += 1
                self.stats.sim_hits += 1
                if source == "disk":
                    self.stats.disk_hits += 1
                self._emit(
                    SimulationEvent(
                        key=key_digest(key),
                        kernel=req.kernel.name,
                        tlp=req.tlp,
                        scheduler=req.scheduler,
                        cached=True,
                        source=source,
                        seconds=0.0,
                    )
                )
            else:
                pending.append(i)

        if pending:
            tasks = []
            tokens = []
            for i in pending:
                req = requests[i]
                try:
                    traces = self.traces_for(
                        req.kernel,
                        req.config,
                        req.resolved_grid(),
                        req.param_sizes,
                        fingerprint=fingerprints[id(req.kernel)],
                    )
                except Exception as err:
                    # Trace generation failed (e.g. a divergence trap):
                    # every point of this kernel fails identically, but
                    # classification stays per-point for the report.
                    self.stats.sim_failures += 1
                    results[i] = classify_error(
                        err,
                        kernel=req.kernel.name,
                        design_point=(None, req.tlp),
                        stage="trace",
                    )
                    continue
                tasks.append((traces, req.config, req.tlp, req.scheduler))
                tokens.append(key_digest(keys[i]))
            pending = [i for i in pending if results[i] is None]
            t_run = time.perf_counter()
            use_batch = self.batch if batch is None else batch
            outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
            remaining = list(range(len(tasks)))
            if use_batch and len(tasks) > 1 and faults.active_plan() is None:
                remaining = self._run_batched(tasks, outcomes)
            if remaining:
                supervised = run_supervised(
                    [tasks[p] for p in remaining],
                    self.jobs,
                    policy=self.supervisor,
                    tokens=[tokens[p] for p in remaining],
                    emit=self._emit,
                )
                for p, outcome in zip(remaining, supervised):
                    outcomes[p] = outcome
            run_seconds = time.perf_counter() - t_run
            per_point = run_seconds / len(pending) if pending else 0.0
            for i, outcome in zip(pending, outcomes):
                req = requests[i]
                self.stats.retries += max(0, outcome.attempts - 1)
                if outcome.timed_out:
                    self.stats.timeouts += 1
                if outcome.ok:
                    result = outcome.result
                    self._sim_cache.put(keys[i], result)
                    if self._checkpoint is not None:
                        self._checkpoint.put(keys[i], result)
                    results[i] = result
                    self.stats.sim_misses += 1
                    self._emit(
                        SimulationEvent(
                            key=key_digest(keys[i]),
                            kernel=req.kernel.name,
                            tlp=req.tlp,
                            scheduler=req.scheduler,
                            cached=False,
                            source="run",
                            seconds=per_point,
                        )
                    )
                else:
                    self.stats.sim_failures += 1
                    results[i] = classify_error(
                        outcome.error,
                        kernel=req.kernel.name,
                        design_point=(None, req.tlp),
                        stage="simulate",
                    )
            self.stats.sim_seconds += run_seconds

        if len(requests) > 1:
            self.stats.batches += 1
            self._emit(
                BatchEvent(
                    points=len(requests),
                    cache_hits=batch_hits,
                    jobs=self.jobs if len(pending) > 1 else 1,
                    seconds=time.perf_counter() - t0,
                )
            )
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # TLP profiling (the paper's exhaustive offline search).
    # ------------------------------------------------------------------
    def profile_tlp(
        self,
        kernel: Kernel,
        config: GPUConfig,
        max_tlp: int,
        grid_blocks: Optional[int] = None,
        param_sizes: Optional[Dict[str, int]] = None,
        scheduler: str = "gto",
        policy: Optional[FastPathPolicy] = None,
        must_include: Iterable[int] = (),
    ) -> Dict[int, SimResult]:
        """Simulate the TLP sweep ``[1, max_tlp]`` for one kernel.

        With the fast path disabled (``policy`` and the engine default
        both ``top_k=None``) every TLP is simulated — the paper's
        exhaustive profiling.  Otherwise the sweep runs the two-tier
        pipeline:

        1. simulate the **anchors** — the ceiling ``max_tlp`` plus any
           ``must_include`` TLPs (e.g. the MaxTLP baseline point, which
           the pipeline reports regardless) — and feed the ceiling
           result's measured DRAM traffic into the analytical model;
        2. **screen** the whole sweep analytically
           (:meth:`~repro.engine.fastpath.FastPathEvaluator.
           screen_sweep`) and simulate the top-K survivors;
        3. with ``policy.refine``, **walk** the running optimum's
           bracket — simulate the analytically-preferred unsimulated
           neighbour of the current best, one point at a time, until
           the best TLP has both neighbours simulated.

        The returned profile contains only the simulated points — plus,
        when a point's simulation ultimately fails despite the
        supervisor's retries, its analytical fast-path estimate
        (``estimated=True``, flagged by a ``DegradeEvent`` and excluded
        from the cache): a sweep always returns its best available
        answer rather than aborting on one bad point.
        """
        if max_tlp <= 0:
            raise ValueError("max_tlp must be positive")
        policy = policy if policy is not None else self.fastpath
        tlps: List[int] = list(range(1, max_tlp + 1))

        def request(tlp: int) -> SimRequest:
            return SimRequest(kernel, config, tlp, grid_blocks, param_sizes, scheduler)

        failures: Dict[int, ReproError] = {}

        def sim_points(ts: Sequence[int]) -> Dict[int, SimResult]:
            good: Dict[int, SimResult] = {}
            for t, outcome in zip(
                ts, self.simulate_outcomes([request(t) for t in ts])
            ):
                if isinstance(outcome, ReproError):
                    failures[t] = outcome
                else:
                    good[t] = outcome
            return good

        def degrade_into(profile: Dict[int, SimResult]) -> None:
            """Fill failed points with analytical estimates (rung 2 of
            the degradation ladder; rung 1 was the supervisor retry)."""
            if not failures:
                return
            anchor = profile.get(max_tlp)
            resolved_grid = request(max_tlp).resolved_grid()
            for t in sorted(failures):
                profile[t] = estimate_sim_result(
                    kernel, config, t, resolved_grid,
                    anchor=anchor, policy=policy,
                )
                self.stats.degraded += 1
                self._emit(
                    DegradeEvent(
                        kernel=kernel.name, tlp=t, reason=failures[t].kind
                    )
                )
            failures.clear()

        if not (policy.enabled and policy.resolve_k(len(tlps)) < len(tlps)):
            profile = sim_points(tlps)
            degrade_into(profile)
            return dict(sorted(profile.items()))

        # Tier 1: anchors first — the ceiling simulation calibrates the
        # bandwidth floor of the analytical screen.  A failed anchor is
        # degraded immediately: the screen then runs un-anchored (pure
        # mimic ordering) rather than not at all.
        anchors = sorted({max_tlp, *(t for t in must_include if 1 <= t <= max_tlp)})
        profile = sim_points(anchors)
        degrade_into(profile)

        t0 = time.perf_counter()
        evaluator = FastPathEvaluator(config, policy)
        resolved_grid = request(max_tlp).resolved_grid()
        scores = evaluator.screen_sweep(
            kernel, tlps, resolved_grid, anchor=profile[max_tlp]
        )
        selection = evaluator.select(scores, must_keep=anchors)
        fastpath_seconds = time.perf_counter() - t0

        fresh = [t for t in sorted(selection.survivors) if t not in profile]
        profile.update(sim_points(fresh))
        degrade_into(profile)

        if policy.refine:
            # Tier 2: bracket walk — one simulation at a time until the
            # running best is a simulated local minimum.  A failed walk
            # point degrades to its estimate, which still anchors the
            # bracket so the walk terminates.
            while True:
                nxt = evaluator.next_refinement(
                    scores,
                    {t: r.cycles for t, r in profile.items()},
                    1,
                    max_tlp,
                )
                if nxt is None:
                    break
                profile.update(sim_points([nxt]))
                degrade_into(profile)

        profile = dict(sorted(profile.items()))

        simulated = sum(1 for r in profile.values() if not r.estimated)
        skipped = max_tlp - len(profile)
        self.stats.fastpath_scored += len(scores)
        self.stats.fastpath_skipped += skipped
        self._emit(
            FastPathEvent(
                kernel=kernel.name,
                scored=len(scores),
                simulated=simulated,
                skipped=skipped,
                top_k=selection.top_k,
                agreement=rank_agreement(
                    scores, {t: r.cycles for t, r in profile.items()}
                ),
                seconds=fastpath_seconds,
            )
        )
        return profile

    def simulate_traces_many(
        self,
        traces: List[BlockTrace],
        config: GPUConfig,
        tlps: Iterable[int],
        scheduler: str = "gto",
    ) -> List[SimResult]:
        """Parallel fan-out over pre-computed traces (uncached: without
        the originating kernel there is no content key).  Multi-point
        calls take the batched SoA core when the engine default allows
        it, falling back to the supervised pool on any batched-core
        failure."""
        tasks = [(traces, config, tlp, scheduler) for tlp in tlps]
        t0 = time.perf_counter()
        outcomes: Optional[List[SimResult]] = None
        if self.batch and len(tasks) > 1 and faults.active_plan() is None:
            try:
                outcomes = simulate_traces_batched(
                    traces, config, [t[2] for t in tasks],
                    scheduler=scheduler,
                )
            except Exception:
                outcomes = None
            if outcomes is not None:
                self.stats.batched_groups += 1
                self.stats.batched_points += len(tasks)
                self._emit(
                    BatchSimEvent(
                        points=len(tasks),
                        scheduler=scheduler,
                        seconds=time.perf_counter() - t0,
                    )
                )
        if outcomes is None:
            outcomes = run_simulations(
                tasks, self.jobs, policy=self.supervisor, emit=self._emit
            )
        seconds = time.perf_counter() - t0
        self.stats.sim_misses += len(tasks)
        self.stats.sim_seconds += seconds
        if len(tasks) > 1:
            self.stats.batches += 1
            self._emit(
                BatchEvent(
                    points=len(tasks),
                    cache_hits=0,
                    jobs=self.jobs,
                    seconds=seconds,
                )
            )
        return outcomes

    # ------------------------------------------------------------------
    # Introspection / lifecycle.
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view of counters, timings and the event log."""
        return {
            "jobs": self.jobs,
            "batch": self.batch,
            "pipeline": self.pipeline,
            "cached_results": len(self._sim_cache),
            "cached_traces": len(self._trace_cache),
            "cache_max_entries": self._sim_cache.max_entries,
            "cache_evictions": self._sim_cache.evictions,
            "task_timeout": self.supervisor.timeout,
            "max_attempts": self.supervisor.max_attempts,
            "checkpoint_dir": self.checkpoint_dir,
            "stats": self.stats.to_dict(),
            "events": [event_to_dict(e) for e in self.events],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def reset_stats(self) -> None:
        """Zero the counters and drop the event log (caches stay warm)."""
        self.stats = EngineStats()
        self.events = []

    def clear(self, disk: bool = False) -> None:
        """Drop cached results and traces (and stats/events)."""
        self._sim_cache.clear(disk=disk)
        self._trace_cache.clear()
        self.reset_stats()


# ----------------------------------------------------------------------
# The process-wide shared engine.
# ----------------------------------------------------------------------
_default_engine: Optional[EvaluationEngine] = None

#: Guards creation/replacement/reconfiguration of the shared engine.
#: Under ``repro serve`` many handler threads reach :func:`get_engine`
#: and :func:`configure` concurrently; without the lock two threads
#: could each instantiate an engine (splitting the cache) or observe a
#: half-applied :func:`configure`.  Reentrant so ``configure`` can call
#: ``get_engine`` while holding it.
_engine_lock = threading.RLock()


def get_engine() -> EvaluationEngine:
    """The process-wide engine every pipeline layer shares by default."""
    global _default_engine
    with _engine_lock:
        if _default_engine is None:
            _default_engine = EvaluationEngine()
        return _default_engine


def set_engine(engine: EvaluationEngine) -> EvaluationEngine:
    """Swap the shared engine (tests / embedding)."""
    global _default_engine
    with _engine_lock:
        _default_engine = engine
        return engine


def configure(
    jobs: Optional[int] = None,
    disk_cache: Optional[str] = None,
    fastpath_topk: Optional[int] = None,
    fastpath_refine: Optional[bool] = None,
    task_timeout: Optional[float] = None,
    checkpoint_dir: Optional[str] = None,
    cache_max_entries: Optional[int] = None,
    passes: Optional[str] = None,
    batch: Optional[bool] = None,
) -> EvaluationEngine:
    """Adjust the shared engine in place (the CLI's ``--jobs`` /
    ``--fastpath-topk`` / ``--task-timeout`` hook).  ``fastpath_topk=0``
    disables the fast path (every design point simulates); positive
    values keep that many survivors per candidate set.
    ``fastpath_refine`` toggles the bracket-refinement walk of enabled
    fast paths.  ``task_timeout`` (seconds; 0 disables) bounds each
    supervised simulation attempt; ``checkpoint_dir`` ("" disables)
    points the resumption journal; ``cache_max_entries`` (0 unbounds)
    LRU-bounds the in-memory result cache.  ``passes`` sets the active
    optimization-pipeline signature folded into cache keys ("" clears
    it; unknown pass names raise :class:`repro.errors.ParseError`).
    The whole adjustment runs under the engine lock, so a concurrent
    ``get_engine`` caller sees either the old or the new configuration,
    never a mix."""
    with _engine_lock:
        engine = get_engine()
        if jobs is not None:
            engine.jobs = resolve_jobs(jobs)
        if batch is not None:
            engine.batch = batch
        if disk_cache is not None:
            engine._sim_cache.disk_dir = disk_cache
        if fastpath_topk is not None:
            engine.fastpath = dataclasses.replace(
                engine.fastpath,
                top_k=fastpath_topk if fastpath_topk > 0 else None,
            )
        if fastpath_refine is not None:
            engine.fastpath = dataclasses.replace(
                engine.fastpath, refine=fastpath_refine
            )
        if task_timeout is not None:
            engine.supervisor = dataclasses.replace(
                engine.supervisor,
                timeout=task_timeout if task_timeout > 0 else None,
            )
        if checkpoint_dir is not None:
            engine.set_checkpoint_dir(checkpoint_dir or None)
        if cache_max_entries is not None:
            engine._sim_cache.set_max_entries(cache_max_entries)
        if passes is not None:
            # Normalized (and validated) before taking effect: a typo'd
            # spec must fail loudly, never silently tag cache keys.
            engine.pipeline = pipeline_signature(passes)
        return engine
