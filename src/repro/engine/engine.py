"""The shared evaluation engine: cached, instrumented simulation.

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
  traces by the same key minus the TLP/scheduler, under the same LRU
  bound.  An optional on-disk store (``REPRO_CACHE_DIR``) persists
  results across processes.
* **Pure-stage memo** — :meth:`EvaluationEngine.memo` runs each pure
  compiler stage (allocation, resource usage, an unverified pass
  pipeline) once per content key and hands every later caller a
  private copy.  LRU-bounded in memory like the result cache; with a
  disk directory its entries also persist there, keyed by the source
  digest as well, so a restarted daemon reads them back.
* **Batched sweeps** — :meth:`simulate_many` runs each group of
  points that share traces, config and scheduler as one in-process
  batch of the timing core; single points and the points of a batch
  that raised run one at a time, once each.  The timing core is
  deterministic, so a point that fails once fails again: its error is
  its outcome.  Every simulation runs in this process.
* **Instrumentation** — every named pipeline stage, trace generation,
  batch and scalar timing run is a span of one nested recorder, next to
  hit/miss counters (:mod:`repro.engine.events`), dumpable as JSON.

Call sites share one engine via :func:`get_engine` so caching composes
across layers (the bench driver, the optimizer, the baselines and the
micro-benchmarks all feed the same cache).
"""

from __future__ import annotations

import dataclasses
import json
import math
import pickle
import threading
import zlib
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from ..analysis.gto_model import throughput_cost
from ..analysis.segments import segment_kernel
from ..arch.config import GPUConfig
from ..errors import ReproError, classify_error
from ..ptx.module import Kernel
from ..sim import gpu
from ..sim.batch import simulate_traces_batched
from ..sim.cache import CacheStats
from ..sim.executor import BlockTrace
from ..sim.gpu import trace_grid
from ..sim.stats import SimResult
from . import cache
from .cache import LRUMap, SimKey, SimResultCache, config_signature, make_sim_key
from .events import EngineStats, SpanRecorder, self_seconds

#: L1 hit ratio the degrade estimate's GTO mimic assumes.
_ESTIMATE_HIT_RATIO = 0.6

T = TypeVar("T")


def _decode_memo(blob: bytes) -> Tuple[bytes, object]:
    """A disk memo payload and the value it holds (a private copy)."""
    return blob, pickle.loads(zlib.decompress(blob))


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


#: One design point for the timing core: its traces and its request.
SimTask = Tuple[List[BlockTrace], SimRequest]


def estimate_sim_result(
    kernel: Kernel,
    config: GPUConfig,
    tlp: int,
    grid_blocks: int,
    anchor: Optional[SimResult] = None,
) -> SimResult:
    """Analytical stand-in for a sweep point whose simulation failed.

    The degradation ladder's last rung (see :meth:`EvaluationEngine.
    profile_tlp`).  Both formulas rest on the GTO scheduling mimic
    (:func:`repro.analysis.gto_model.throughput_cost`, hit ratio 0.6).
    With a simulated ``anchor`` (the sweep ceiling), a grid of ``M``
    blocks at TLP ``n`` is predicted as::

        max(serial * ceil(M / n) / M, anchor.dram_bytes / dram_bytes_per_cycle)

    where ``serial`` is the mimic's cost at TLP 1; without one, the
    mimic's cost at TLP ``n``.  The result is marked
    ``estimated=True`` and carries zero counters: only its cycle count
    is meaningful.
    """
    segments = segment_kernel(kernel, config)
    if anchor is not None:
        serial = throughput_cost(segments, 1, config, _ESTIMATE_HIT_RATIO)
        latency = serial * math.ceil(grid_blocks / tlp) / grid_blocks
        cycles = max(latency, anchor.dram_bytes / config.dram_bytes_per_cycle)
    else:
        cycles = throughput_cost(segments, tlp, config, _ESTIMATE_HIT_RATIO)
    return SimResult(
        cycles=cycles,
        instructions=0,
        tlp=tlp,
        blocks_executed=0,
        l1=CacheStats(),
        l2=CacheStats(),
        mshr_stall_events=0,
        mshr_stall_cycles=0.0,
        barrier_stall_cycles=0.0,
        idle_cycles=0.0,
        local_load_insts=0,
        local_store_insts=0,
        shared_insts=0,
        global_insts=0,
        bypassed_insts=0,
        dram_transactions=0,
        dram_bytes=0,
        issued_by_class={},
        energy_nj=0.0,
        estimated=True,
    )


class EvaluationEngine:
    """Single owner of trace generation and timing simulation."""

    def __init__(
        self,
        jobs: int = 1,
        disk_cache: Optional[str] = None,
        max_events: int = 100_000,
        cache_max_entries: Optional[int] = None,
    ):
        # ``jobs=1`` is accepted so existing callers keep working; the
        # engine runs every simulation in this process.
        if jobs != 1:
            raise ValueError(
                f"jobs={jobs!r}: the engine runs every simulation "
                "in-process; only jobs=1 is accepted"
            )
        self._sim_cache = SimResultCache(
            disk_cache,
            on_corrupt=self._on_cache_corrupt,
            max_entries=cache_max_entries,
        )
        # Traces and the pure-stage memo (:meth:`memo`: content key ->
        # compressed pickle of the stage's value) share the result
        # cache's LRU bound.
        bound = self._sim_cache.max_entries
        self._trace_cache: LRUMap[List[BlockTrace]] = LRUMap(bound)
        self._memo: LRUMap[bytes] = LRUMap(bound)
        #: Guards the memo counters, which every worker thread bumps.
        self._memo_lock = threading.Lock()
        self.stats = EngineStats()
        #: The newest ``max_events`` spans; older ones fall off the
        #: front, so a long-lived daemon's log stays current.
        self.spans = SpanRecorder(max_events)
        #: ``with engine.span("search"):`` times a block and
        #: ``engine.mark("degrade", ...)`` records a point fact, both
        #: into :attr:`spans`.
        self.span = self.spans.span
        self.mark = self.spans.mark

    def _on_cache_corrupt(self, path: str, reason: str) -> None:
        self.stats.cache_corrupt += 1
        self.mark("cache_corrupt", path=path, reason=reason)

    # ------------------------------------------------------------------
    # Pure-stage memo.
    # ------------------------------------------------------------------
    def memo(self, key: Tuple, compute: Callable[[], T]) -> T:
        """``compute()``, run once per ``key`` while the key stays cached.

        For pure compiler stages whose value is a function of ``key``
        alone (callers build it from :meth:`Kernel.fingerprint` and
        every other input the stage reads).  Values are kept as
        ``zlib``-compressed pickles, so every hit unpickles a private
        copy that its caller may rewrite freely, and an entry costs a
        few KiB instead of a live object graph.  The memory level
        shares the result cache's LRU bound (``cache_max_entries``).

        With a disk directory, a memory miss reads the result cache's
        disk store before it computes, and a computed value is written
        there.  The disk key also carries :func:`cache.source_digest`,
        because ``key`` names only the stage's inputs, not the code
        that computes it.  An exception from ``compute`` propagates and
        stores nothing on either level.
        """
        blob = self._memo.get(key)
        if blob is not None:
            with self._memo_lock:
                self.stats.memo_hits += 1
            return pickle.loads(zlib.decompress(blob))
        disk_key = self._memo_disk_key(key)
        if disk_key is not None:
            found = self._sim_cache.read_entry("memo", disk_key, _decode_memo)
            if found is not None:
                blob, value = found
                with self._memo_lock:
                    self.stats.memo_disk_hits += 1
                self._memo.put(key, blob)
                return value
        with self._memo_lock:
            self.stats.memo_misses += 1
        value = compute()
        blob = zlib.compress(pickle.dumps(value), 1)
        self._memo.put(key, blob)
        if disk_key is not None:
            self._sim_cache.write_entry("memo", disk_key, blob)
        return value

    def _memo_disk_key(self, key: Tuple) -> Optional[Tuple]:
        """``key`` under the source digest; ``None`` keeps the memo in
        memory (no disk directory, or no digest)."""
        if not self._sim_cache.disk_dir:
            return None
        digest = cache.source_digest()
        return None if digest is None else (digest,) + tuple(key)

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
            return traces
        with self.span("sim.trace", kernel=kernel.name, grid_blocks=grid_blocks):
            traces = trace_grid(kernel, config, grid_blocks, param_sizes)
        self._trace_cache.put(key, traces)
        self.stats.trace_misses += 1
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
    # Batched simulation.
    # ------------------------------------------------------------------
    def simulate_many(self, requests: Sequence[SimRequest]) -> List[SimResult]:
        """Evaluate a batch of independent design points (strict).

        Cache hits are served immediately; the remaining points run as
        described in :meth:`simulate_outcomes`.  Results come back in
        request order.  A point whose simulation raised raises its
        classified :class:`~repro.errors.ReproError`; callers that can
        degrade per-point use :meth:`simulate_outcomes`.
        """
        outcomes = self.simulate_outcomes(requests)
        for outcome in outcomes:
            if isinstance(outcome, ReproError):
                raise outcome
        return outcomes  # type: ignore[return-value]

    def _run_batched(
        self,
        tasks: Sequence[SimTask],
        outcomes: List[Optional[SimResult]],
    ) -> List[int]:
        """Evaluate groups of ``tasks`` as one batch each.

        Groups share (traces, config, scheduler) and differ only in
        TLP — the shape of a profile sweep.  Fills ``outcomes`` for
        every position it evaluated and returns the positions it left
        for :meth:`_run_tasks` to run alone: singleton groups and every
        point of a group whose batched run raised.
        """
        groups: Dict[Tuple[int, str, str], List[int]] = {}
        for pos, (traces, req) in enumerate(tasks):
            key = (id(traces), req.scheduler, config_signature(req.config))
            groups.setdefault(key, []).append(pos)
        leftover: List[int] = []
        for positions in groups.values():
            if len(positions) < 2:
                leftover.extend(positions)
                continue
            traces, req = tasks[positions[0]]
            tlps = [tasks[p][1].tlp for p in positions]
            try:
                with self.span(
                    "sim.batch", lanes=len(tlps), scheduler=req.scheduler
                ):
                    results = simulate_traces_batched(
                        traces, req.config, tlps, scheduler=req.scheduler
                    )
            except Exception:
                # Run each point alone, so one bad lane fails only
                # itself.
                leftover.extend(positions)
                continue
            for p, result in zip(positions, results):
                outcomes[p] = result
            self.stats.batched_groups += 1
            self.stats.batched_points += len(positions)
        leftover.sort()
        return leftover

    def _run_tasks(
        self, tasks: Sequence[SimTask]
    ) -> List[Union[SimResult, Exception]]:
        """Per task, its result or the exception its simulation raised.

        :meth:`_run_batched` runs the groups; each point it leaves runs
        once, alone.  Only ``Exception`` is caught, so Ctrl-C stops the
        run.
        """
        outcomes: List = [None] * len(tasks)
        for p in self._run_batched(tasks, outcomes):
            traces, req = tasks[p]
            try:
                # Looked up on the module at call time, so a wrapper
                # installed on ``repro.sim.gpu`` sees every point.
                with self.span(
                    "sim.scalar", kernel=req.kernel.name, tlp=req.tlp
                ):
                    outcomes[p] = gpu.simulate_traces(
                        traces, req.config, req.tlp, scheduler=req.scheduler
                    )
            except Exception as err:
                outcomes[p] = err
        return outcomes

    def simulate_outcomes(
        self,
        requests: Sequence[SimRequest],
    ) -> List[Union[SimResult, ReproError]]:
        """Evaluate a batch, reporting per-point failures in-band.

        Each slot of the returned list is either the point's
        :class:`SimResult` or the classified error it ended with.
        Successful points are cached; failed points are not.

        Groups of two or more points that share traces, config and
        scheduler run as one batch of the timing core
        (:meth:`_run_batched`); single points and the points of a
        failed batch run one at a time (:meth:`_run_tasks`).  Each
        point runs once: the timing core is deterministic, so a retry
        would fail the same way.
        """
        with self.span("engine.simulate", points=len(requests)) as attrs:
            results: List[Optional[Union[SimResult, ReproError]]] = (
                [None] * len(requests)
            )
            keys: List[SimKey] = []
            pending: List[int] = []
            fingerprints: Dict[int, str] = {}
            for i, req in enumerate(requests):
                fp = fingerprints.get(id(req.kernel))
                if fp is None:
                    # Once per kernel object: a sweep repeats one kernel.
                    fp = fingerprints[id(req.kernel)] = req.kernel.fingerprint()
                key = make_sim_key(
                    fp, req.config, req.resolved_grid(), req.param_sizes,
                    req.tlp, req.scheduler,
                )
                keys.append(key)
                cached, source = self._sim_cache.get(key)
                if cached is not None:
                    results[i] = cached
                    self.stats.sim_hits += 1
                    if source == "disk":
                        self.stats.disk_hits += 1
                else:
                    pending.append(i)
            attrs["hits"] = len(requests) - len(pending)

            tasks: List[SimTask] = []
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
                tasks.append((traces, req))
            pending = [i for i in pending if results[i] is None]
            for i, outcome in zip(pending, self._run_tasks(tasks)):
                req = requests[i]
                if isinstance(outcome, SimResult):
                    self._sim_cache.put(keys[i], outcome)
                    results[i] = outcome
                    self.stats.sim_misses += 1
                else:
                    self.stats.sim_failures += 1
                    results[i] = classify_error(
                        outcome,
                        kernel=req.kernel.name,
                        design_point=(None, req.tlp),
                        stage="simulate",
                    )
        if len(requests) > 1:
            self.stats.batches += 1
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
    ) -> Dict[int, SimResult]:
        """Simulate every TLP in ``[1, max_tlp]`` for one kernel — the
        paper's exhaustive profiling.

        A point whose simulation fails (after its batch raised, it ran
        alone and raised again) is filled with its analytical estimate
        (:func:`estimate_sim_result`): ``estimated=True``, flagged by a
        ``degrade`` mark and excluded from the cache.  A sweep always returns its best available
        answer rather than aborting on one bad point.
        """
        if max_tlp <= 0:
            raise ValueError("max_tlp must be positive")
        requests = [
            SimRequest(kernel, config, tlp, grid_blocks, param_sizes, scheduler)
            for tlp in range(1, max_tlp + 1)
        ]
        outcomes = self.simulate_outcomes(requests)
        profile = {
            req.tlp: outcome
            for req, outcome in zip(requests, outcomes)
            if not isinstance(outcome, ReproError)
        }
        anchor = profile.get(max_tlp)
        for req, outcome in zip(requests, outcomes):
            if not isinstance(outcome, ReproError):
                continue
            profile[req.tlp] = estimate_sim_result(
                kernel, config, req.tlp, req.resolved_grid(), anchor=anchor
            )
            self.stats.degraded += 1
            self.mark(
                "degrade", kernel=kernel.name, tlp=req.tlp,
                reason=outcome.kind, estimated=True,
            )
        return dict(sorted(profile.items()))

    # ------------------------------------------------------------------
    # Introspection / lifecycle.
    # ------------------------------------------------------------------
    def snapshot(self, spans: bool = True) -> Dict[str, object]:
        """JSON-ready view of the counters and, with ``spans``, the span
        log and each span name's self seconds."""
        view: Dict[str, object] = {
            "cached_results": len(self._sim_cache),
            "cached_traces": len(self._trace_cache),
            "memo_entries": len(self._memo),
            "cache_max_entries": self._sim_cache.max_entries,
            "cache_evictions": self._sim_cache.evictions,
            "stats": self.stats.to_dict(),
        }
        if spans:
            # ``list()`` copies the deque in one step, so a worker
            # thread appending meanwhile cannot break the iteration.
            log = list(self.spans.spans)
            view["spans"] = [span.to_dict() for span in log]
            view["self_seconds"] = self_seconds(log)
        return view

    def summary(self) -> str:
        """The counter line ``repro suite`` prints, with the self
        seconds of the ``sim.*`` spans as its time spent simulating."""
        seconds = self_seconds(list(self.spans.spans))
        return self.stats.summary(
            sum(s for name, s in seconds.items() if name.startswith("sim."))
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def reset_stats(self) -> None:
        """Zero the counters and drop the span log (caches stay warm)."""
        self.stats = EngineStats()
        self.spans.spans.clear()

    def clear(self, disk: bool = False) -> None:
        """Drop cached results, traces and memoised stages (and
        stats/spans); ``disk=True`` also deletes the disk entries of
        results and memoised stages."""
        self._sim_cache.clear(disk=disk)
        self._trace_cache.clear()
        self._memo.clear()
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
    disk_cache: Optional[str] = None,
    cache_max_entries: Optional[int] = None,
) -> EvaluationEngine:
    """Adjust the shared engine in place (the CLI's hook).
    ``cache_max_entries`` (0 unbounds) LRU-bounds the in-memory result
    cache, the stage memo and the trace cache.
    The whole adjustment runs under the engine lock, so a concurrent
    ``get_engine`` caller sees either the old or the new configuration,
    never a mix."""
    with _engine_lock:
        engine = get_engine()
        if disk_cache is not None:
            engine._sim_cache.disk_dir = disk_cache
        if cache_max_entries is not None:
            for level in (engine._sim_cache, engine._memo, engine._trace_cache):
                level.set_max_entries(cache_max_entries)
        return engine
