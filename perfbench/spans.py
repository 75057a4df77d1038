"""In-memory span tracer installed around the public functions of ``repro``.

The benchmark never edits the program: :func:`install` replaces each
function listed in :data:`TARGETS` with a wrapper, at the place its
callers look it up (``repro.core.crat.allocate`` and
``repro.core.throttling.allocate`` are two separate lookups of one
function).  Each call records a span -- name, start, end, parent span
and request id -- into a :class:`Recorder` that keeps everything in
memory until the run ends.  Wrappers may also add to named counters
(warp ops traced, points batched, values spilled, ...).

Self time is a span's duration minus the part of its interval that its
child spans cover; :func:`self_times` computes it per span and
:func:`layer_metrics` sums it per metric name.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: One recorded span: (name, start, end, parent index or -1, request id).
Span = Tuple[str, float, float, int, str]


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- per-thread context -------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self) -> str:
        return getattr(self._local, "request_id", "")

    @request_id.setter
    def request_id(self, value: str) -> None:
        self._local.request_id = value

    # -- recording ----------------------------------------------------
    def add(self, counter: str, amount: float) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def call(self, name: str, fn: Callable, args, kwargs, count=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.request_id))
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, self.request_id)
        if count is not None:
            for counter, amount in count(result, args, kwargs):
                self.add(counter, amount)
        return result

    def to_dict(self) -> Dict[str, object]:
        return {"spans": list(self.spans), "counters": dict(self.counters)}


# ----------------------------------------------------------------------
# Counters read off a wrapped call's result and arguments.
# ----------------------------------------------------------------------
def _count_rewrites(result, args, kwargs):
    yield "ir.rewrites_applied", result.total_applied


def _count_candidates(result, args, kwargs):
    yield "core.candidates", len(result)


def _count_spilled(result, args, kwargs):
    yield "regalloc.spilled_values", len(result.spilled)


def _count_warp_ops(result, args, kwargs):
    yield "sim.trace_warp_ops", sum(
        len(ops) for block in result for ops in block.warp_ops
    )


def _count_batch(result, args, kwargs):
    yield "sim.batch_points", len(result)
    yield "sim.cycles_simulated", sum(r.cycles for r in result)


def _count_scalar(result, args, kwargs):
    yield "sim.cycles_simulated", result.cycles


#: (module, attribute path, span name, counter function).  A dotted
#: attribute path wraps a method on its class; a span name of ``None``
#: only counts.
TARGETS: Sequence[Tuple[str, str, Optional[str], Optional[Callable]]] = (
    ("repro.workloads.suite", "generate_kernel", "workloads.generate", None),
    ("repro.service.jobs", "parse_kernel", "ptx.parse", None),
    ("repro.ptx.module", "Kernel.fingerprint", "ptx.fingerprint", None),
    ("repro.core.crat", "run_pipeline", "ir.passes", _count_rewrites),
    ("repro.service.jobs", "run_pipeline", "ir.passes", _count_rewrites),
    ("repro.verify", "lint_kernel", "verify.check", None),
    ("repro.verify", "verify_allocation", "verify.check", None),
    ("repro.verify", "verify_pass", "verify.check", None),
    ("repro.core.crat", "collect_resource_usage", "core.usage", None),
    ("repro.core.crat", "run_baselines", "core.baselines", None),
    ("repro.core.crat", "prune", None, _count_candidates),
    ("repro.core.crat", "score", "core.score", None),
    ("repro.core.crat", "allocate", "regalloc.allocate", _count_spilled),
    ("repro.core.throttling", "allocate", "regalloc.allocate", _count_spilled),
    ("repro.regalloc.shm_spill", "knapsack", "regalloc.knapsack", None),
    ("repro.engine.engine", "trace_grid", "sim.trace", _count_warp_ops),
    ("repro.engine.engine", "simulate_traces_batched", "sim.batch",
     _count_batch),
    ("repro.sim.gpu", "simulate_traces", "sim.scalar", _count_scalar),
    ("repro.engine.engine", "EvaluationEngine.simulate_outcomes",
     "engine.simulate", None),
    ("repro.engine.cache", "SimResultCache.get", "engine.cache_get", None),
    ("repro.engine.cache", "SimResultCache.put", "engine.cache_put", None),
    ("repro.service.jobs", "prepare", "service.prepare", None),
    ("repro.service.jobs", "execute", "service.execute", None),
)


def _request_id_of(name: str, args) -> Optional[str]:
    """The service request a ``prepare``/``execute`` call belongs to."""
    if name == "service.prepare":
        return str(args[0].id or "")
    if name == "service.execute":
        return str(args[0].request.id or "")
    return None


def _wrap(recorder: Recorder, name: Optional[str], fn: Callable, count) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if name is None:
            result = fn(*args, **kwargs)
            for counter, amount in count(result, args, kwargs):
                recorder.add(counter, amount)
            return result
        request_id = _request_id_of(name, args)
        if request_id is None:
            return recorder.call(name, fn, args, kwargs, count)
        outer = recorder.request_id
        recorder.request_id = request_id
        try:
            return recorder.call(name, fn, args, kwargs, count)
        finally:
            recorder.request_id = outer

    return wrapper


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every :data:`TARGETS` entry; returns a function undoing it."""
    undo: List[Tuple[object, str, object]] = []
    for module_name, path, name, count in TARGETS:
        owner: object = importlib.import_module(module_name)
        *owners, attribute = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = getattr(owner, attribute)
        setattr(owner, attribute, _wrap(recorder, name, original, count))
        undo.append((owner, attribute, original))

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall


# ----------------------------------------------------------------------
# Span arithmetic.
# ----------------------------------------------------------------------
def _covered(start: float, end: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(start, end, children.get(index, []))
        for index, (_, start, end, _, _) in enumerate(spans)
    ]


#: Span name -> (seconds metric, calls metric or None).
SPAN_METRICS: Dict[str, Tuple[str, Optional[str]]] = {
    "workloads.generate": ("workloads.generate_s", "workloads.generate_calls"),
    "ptx.parse": ("ptx.parse_s", "ptx.parse_calls"),
    "ptx.fingerprint": ("ptx.fingerprint_s", "ptx.fingerprint_calls"),
    "ir.passes": ("ir.passes_s", "ir.passes_calls"),
    "verify.check": ("verify.check_s", "verify.check_calls"),
    "core.usage": ("core.usage_s", None),
    "core.baselines": ("core.baselines_self_s", None),
    "core.score": ("core.score_s", None),
    "regalloc.allocate": ("regalloc.allocate_s", "regalloc.allocate_calls"),
    "regalloc.knapsack": ("regalloc.knapsack_s", None),
    "sim.trace": ("sim.trace_s", "sim.trace_calls"),
    "sim.batch": ("sim.batch_s", "sim.batch_calls"),
    "sim.scalar": ("sim.scalar_s", "sim.scalar_calls"),
    "engine.simulate": ("engine.simulate_self_s", None),
    "engine.cache_get": ("engine.cache_get_s", None),
    "engine.cache_put": ("engine.cache_put_s", None),
    "service.prepare": ("service.prepare_s", None),
    "service.execute": ("service.execute_s", None),
}

#: Counters every report carries, zero when nothing added to them.
COUNTERS = (
    "ir.rewrites_applied",
    "core.candidates",
    "regalloc.spilled_values",
    "sim.trace_warp_ops",
    "sim.batch_points",
    "sim.cycles_simulated",
)


def layer_metrics(recorder_dicts: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Self seconds and call counts per metric, summed over processes."""
    metrics: Dict[str, float] = {}
    for seconds_name, calls_name in SPAN_METRICS.values():
        metrics[seconds_name] = 0.0
        if calls_name:
            metrics[calls_name] = 0
    for name in COUNTERS:
        metrics[name] = 0
    for data in recorder_dicts:
        spans = [tuple(s) for s in data["spans"]]  # type: ignore[union-attr]
        for span, own in zip(spans, self_times(spans)):
            seconds_name, calls_name = SPAN_METRICS[span[0]]
            metrics[seconds_name] += own
            if calls_name:
                metrics[calls_name] += 1
        for name, amount in data["counters"].items():  # type: ignore[union-attr]
            metrics[name] = metrics.get(name, 0) + amount
    return metrics


def request_windows(
    spans: Sequence[Span],
) -> Dict[str, Tuple[float, float, float, float]]:
    """Per request id: prepare start and end, execute start and end.

    Used for the service's queue wait (execute start minus prepare end)
    and the wire time (client round trip minus execute end plus
    prepare start).
    """
    prepared: Dict[str, Tuple[float, float]] = {}
    executed: Dict[str, Tuple[float, float]] = {}
    for name, start, end, _, request_id in spans:
        if name == "service.prepare":
            prepared[request_id] = (start, end)
        elif name == "service.execute":
            executed[request_id] = (start, end)
    return {
        rid: (prepared[rid][0], prepared[rid][1], executed[rid][0], executed[rid][1])
        for rid in prepared
        if rid in executed
    }
