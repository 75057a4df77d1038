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
  fingerprint, config, grid_blocks, param_sizes, tlp)``; traces by the
  same key minus the TLP, under the same LRU bound, and kept packed
  (:class:`~repro.sim.batch.PackedGrid`), so each trace set is packed
  once however many points replay it.  An optional on-disk store
  (``REPRO_CACHE_DIR``) persists results across processes.
* **Pure-stage memo** — :meth:`EvaluationEngine.memo` runs each pure
  compiler stage (the parse of inline PTX text, allocation, resource
  usage, a pass pipeline's recorded rewrite chain) once per content
  key and hands every later caller the same immutable value.
  LRU-bounded in memory like the result cache; with a disk directory
  its entries also persist there as pickles, keyed by the source
  digest as well, so a restarted daemon reads them back (each entry
  decoded once, its registers and instructions shared by value with
  every other decoded entry).
* **Batched sweeps** — :meth:`simulate_outcomes` runs each group of
  points that share a packed grid (and so its kernel, grid and config)
  as one in-process batch of the timing core, and a single point
  alone, once each.  The timing core is deterministic, so nothing is
  re-run and nothing is estimated: the first trace or timing run that
  raises fails the call with its classified error.  Every simulation
  runs in this process.
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
import pickle
import threading
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..arch.config import GPUConfig
from ..errors import ReproError, classify_error
from ..ptx.module import Kernel
from ..sim import gpu
from ..sim.batch import PackedGrid, gc_paused, simulate_traces_batched
from ..sim.gpu import trace_grid
from ..sim.stats import SimResult
from . import cache
from .cache import LRUMap, SimKey, SimResultCache, config_signature, make_sim_key
from .events import EngineStats, SpanRecorder, self_seconds

T = TypeVar("T")


def _decode_memo(blob: bytes) -> Tuple[object]:
    """The value a disk memo payload holds, boxed as the memory level
    keeps it (:meth:`EvaluationEngine.memo`)."""
    return (pickle.loads(zlib.decompress(blob)),)


@dataclasses.dataclass(frozen=True)
class SimRequest:
    """One design point to evaluate: a kernel at a TLP on a config."""

    kernel: Kernel
    config: GPUConfig
    tlp: int
    grid_blocks: Optional[int] = None
    param_sizes: Optional[Dict[str, int]] = None

    def resolved_grid(self) -> int:
        if self.grid_blocks is not None:
            return self.grid_blocks
        return 2 * self.config.max_blocks_per_sm


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
        # Packed traces and the pure-stage memo (:meth:`memo`: content
        # key -> the stage's value in a 1-tuple, so that a memoised
        # ``None`` is not a miss) share the result cache's LRU bound.
        bound = self._sim_cache.max_entries
        self._trace_cache: LRUMap[PackedGrid] = LRUMap(bound)
        self._memo: LRUMap[Tuple[object]] = LRUMap(bound)
        #: Guards the memo counters, which every worker thread bumps.
        self._memo_lock = threading.Lock()
        self.stats = EngineStats()
        #: The newest ``max_events`` spans; older ones fall off the
        #: front, so a long-lived daemon's log stays current.
        self.spans = SpanRecorder(max_events)
        #: ``with engine.span("search"):`` times a block and
        #: ``engine.mark("cache_corrupt", ...)`` records a point fact,
        #: both into :attr:`spans`.
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
        alone (callers build it from :meth:`Kernel.fingerprint`, or
        from a sha256 of the PTX text a parse reads, and every other
        input the stage reads): the parse of inline PTX text
        (``("ptx", digest)``), resource usage, allocation and a pass
        pipeline's rewrite chain (:func:`repro.core.crat.run_passes`).
        The memory level keeps the value itself and every hit returns
        that same object, so values must be immutable (kernels,
        allocations, resource usage and rewrite chains are).
        It shares the result cache's LRU bound (``cache_max_entries``).
        A memoised ``None`` or ``0`` hits like any other value.

        With a disk directory, a memory miss reads the result cache's
        disk store before it computes, and a computed value is pickled
        there (only there: without a directory nothing is pickled).  A
        disk hit is decoded once and then kept in memory; decoding
        shares equal registers and instructions with every other
        decoded value (:mod:`repro.ptx.instruction`).  The disk key
        also carries :func:`cache.source_digest`, because ``key`` names
        only the stage's inputs, not the code that computes it.  An
        exception from ``compute`` propagates and stores nothing on
        either level.
        """
        found = self._memo.get(key)
        if found is not None:
            with self._memo_lock:
                self.stats.memo_hits += 1
            return found[0]
        disk_key = self._memo_disk_key(key)
        if disk_key is not None:
            found = self._sim_cache.read_entry("memo", disk_key, _decode_memo)
            if found is not None:
                with self._memo_lock:
                    self.stats.memo_disk_hits += 1
                self._memo.put(key, found)
                return found[0]
        with self._memo_lock:
            self.stats.memo_misses += 1
        value = compute()
        self._memo.put(key, (value,))
        if disk_key is not None:
            blob = zlib.compress(pickle.dumps(value), 1)
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
    ) -> PackedGrid:
        """Functional traces for a kernel/grid, packed for ``config``
        and cached by content: a miss traces the grid (``sim.trace``)
        and packs it (``sim.pack``), and the cache keeps only the
        packed grid, which is smaller than its traces."""
        if fingerprint is None:
            fingerprint = kernel.fingerprint()
        params = tuple(sorted((param_sizes or {}).items()))
        key = (fingerprint, config_signature(config), grid_blocks, params)
        packed = self._trace_cache.get(key)
        if packed is not None:
            self.stats.trace_hits += 1
            return packed
        with gc_paused():
            with self.span("sim.trace", kernel=kernel.name, grid_blocks=grid_blocks):
                traces = trace_grid(kernel, config, grid_blocks, param_sizes)
            with self.span("sim.pack", kernel=kernel.name, grid_blocks=grid_blocks):
                packed = PackedGrid(traces, config)
        self._trace_cache.put(key, packed)
        self.stats.trace_misses += 1
        return packed

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
    ) -> SimResult:
        """Simulate one design point, through the cache."""
        request = SimRequest(kernel, config, tlp, grid_blocks, param_sizes)
        return self.simulate_outcomes([request])[0]

    # ------------------------------------------------------------------
    # Batched simulation.
    # ------------------------------------------------------------------
    def simulate_outcomes(self, requests: Sequence[SimRequest]) -> List[SimResult]:
        """Evaluate independent design points; results come back in
        request order.

        Cache hits are served immediately.  The other points are grouped
        by packed grid, which belongs to one kernel, grid and config
        (the trace-cache key holds them all), so a group differs only
        in TLP, the shape of a profile sweep: a group of two or more
        points runs as one batch of the timing core, a single point
        alone.  Each point runs once, and every result is cached.

        The first trace generation or timing run that raises bumps
        ``sim_failures`` and propagates as its classified
        :class:`~repro.errors.ReproError`, naming the kernel, the stage
        (``trace`` or ``simulate``) and, for a single point, its TLP.
        The timing core is deterministic, so a re-run would fail the
        same way.  Only ``Exception`` is caught, so Ctrl-C stops the run.
        """
        with self.span("engine.simulate", points=len(requests)) as attrs:
            results: List[Optional[SimResult]] = [None] * len(requests)
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
                    req.tlp,
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

            groups: Dict[int, Tuple[PackedGrid, List[int]]] = {}
            for i in pending:
                req = requests[i]
                try:
                    packed = self.traces_for(
                        req.kernel,
                        req.config,
                        req.resolved_grid(),
                        req.param_sizes,
                        fingerprint=fingerprints[id(req.kernel)],
                    )
                except Exception as err:
                    # A trace serves every TLP of its kernel: name the
                    # TLP only when it is the one point asked for.
                    tlp = req.tlp if len(pending) == 1 else None
                    raise self._failure(err, req, "trace", tlp)
                groups.setdefault(id(packed), (packed, []))[1].append(i)
            for packed, positions in groups.values():
                group_requests = [requests[i] for i in positions]
                for i, result in zip(positions, self._run(packed, group_requests)):
                    self._sim_cache.put(keys[i], result)
                    results[i] = result
                    self.stats.sim_misses += 1
        if len(requests) > 1:
            self.stats.batches += 1
        return results  # type: ignore[return-value]

    def _run(
        self, packed: PackedGrid, requests: List[SimRequest]
    ) -> List[SimResult]:
        """One timing run over points that share ``packed``: a
        ``sim.batch`` of two or more lanes, or a ``sim.scalar`` point.
        Both entry points are looked up on their modules at call time,
        so a wrapper installed there sees every run."""
        req = requests[0]
        if len(requests) == 1:
            try:
                with self.span(
                    "sim.scalar", kernel=req.kernel.name, tlp=req.tlp
                ):
                    result = gpu.simulate_traces(packed, req.config, req.tlp)
            except Exception as err:
                raise self._failure(err, req, "simulate", req.tlp)
            return [result]
        tlps = [r.tlp for r in requests]
        try:
            with self.span("sim.batch", lanes=len(tlps)):
                results = simulate_traces_batched(packed, req.config, tlps)
        except Exception as err:
            raise self._failure(err, req, "simulate", None)
        self.stats.batched_groups += 1
        self.stats.batched_points += len(requests)
        return results

    def _failure(
        self, err: Exception, req: SimRequest, stage: str, tlp: Optional[int]
    ) -> ReproError:
        """Count a failed trace or timing run and classify its error."""
        self.stats.sim_failures += 1
        return classify_error(
            err,
            kernel=req.kernel.name,
            design_point=None if tlp is None else (None, tlp),
            stage=stage,
        )

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
    ) -> Dict[int, SimResult]:
        """Simulate every TLP in ``[1, max_tlp]`` for one kernel — the
        paper's exhaustive profiling.  A point that fails fails the
        sweep (:meth:`simulate_outcomes`)."""
        if max_tlp <= 0:
            raise ValueError("max_tlp must be positive")
        tlps = range(1, max_tlp + 1)
        results = self.simulate_outcomes([
            SimRequest(kernel, config, tlp, grid_blocks, param_sizes)
            for tlp in tlps
        ])
        return dict(zip(tlps, results))

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
