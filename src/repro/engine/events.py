"""Counters and the span recorder of the evaluation engine.

Every timed boundary of the engine and the service — a pipeline stage,
a functional trace, a timing-core run, a service request — is one
:class:`Span` in the engine's :class:`SpanRecorder`, and a point fact
(a degraded point, a corrupt cache entry) is a *mark*, a span whose
start equals its end.  The running totals live in
:class:`EngineStats`.  The CLI dumps both, with each span name's self
seconds (:func:`self_seconds`), as JSON (``--trace-json``); the
``suite`` command prints the counter summary, which is how the "zero
new simulations on a warm cache" property is verified.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import threading
import time
from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Tuple


@dataclasses.dataclass(frozen=True)
class Span:
    """One interval of work on one thread, timed by ``time.perf_counter``.

    ``parent`` is the id of the span that was innermost open on the
    same thread when this one began (0 for a root); ``request`` is the
    service request it ran for ("" outside the service).
    """

    id: int
    parent: int
    name: str
    start: float
    end: float
    request: str
    attrs: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "request": self.request,
            "attrs": dict(self.attrs),
        }


class SpanRecorder:
    """The newest ``max_spans`` spans, nested per thread.

    Each thread keeps its own stack of open span ids, which gives every
    span its parent, and its own request id.  A span is appended when
    it closes, so a parent follows its children; spans carry ids from
    one counter rather than positions, because the oldest spans fall
    off the front of the bounded deque.
    """

    def __init__(self, max_spans: int):
        self.spans: Deque[Span] = deque(maxlen=max_spans)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def request(self, request_id: str) -> Iterator[None]:
        """Tag the spans this thread records meanwhile with ``request_id``."""
        outer = getattr(self._local, "request", "")
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = outer

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Dict[str, object]]:
        """Time the ``with`` body as one span.  Yields ``attrs``, so the
        body can add what it learns on the way."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(
                span_id, parent, name, start, end,
                getattr(self._local, "request", ""), attrs,
            ))

    def record(self, name: str, start: float, end: float, **attrs: object) -> None:
        """A ``perf_counter`` interval measured elsewhere — on another
        thread, or before a span could open — under this thread's
        innermost open span."""
        stack = self._stack()
        self.spans.append(Span(
            next(self._ids), stack[-1] if stack else 0, name, start, end,
            getattr(self._local, "request", ""), attrs,
        ))

    def mark(self, name: str, **attrs: object) -> None:
        """A point fact: a span whose start equals its end."""
        now = time.perf_counter()
        self.record(name, now, now, **attrs)


def self_seconds(spans: Iterable[Span]) -> Dict[str, float]:
    """Per span name, the seconds no child span covers.

    Each span's duration minus the union of its children's intervals
    (clipped to the span, so overlapping children count once), summed
    by name.  A parent dropped from a full recorder takes its children's
    time with it, so read a truncated log's totals as a lower bound.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: Dict[str, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(span.id, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own = span.end - span.start - covered
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


@dataclasses.dataclass
class EngineStats:
    """Running counters over the engine's lifetime (until ``reset``)."""

    sim_hits: int = 0
    sim_misses: int = 0
    disk_hits: int = 0
    trace_hits: int = 0
    trace_misses: int = 0
    batches: int = 0
    batched_points: int = 0
    batched_groups: int = 0
    #: Always 0: each point runs once.  Kept in the snapshot because
    #: the benchmark harness still reads it.
    retries: int = 0
    degraded: int = 0
    sim_failures: int = 0
    cache_corrupt: int = 0
    #: Pure-stage memo lookups (:meth:`EvaluationEngine.memo`): memory
    #: hits, disk hits and computes, one of the three per lookup.
    memo_hits: int = 0
    memo_disk_hits: int = 0
    memo_misses: int = 0

    @property
    def simulations(self) -> int:
        """Timing simulations actually executed (cache misses)."""
        return self.sim_misses

    @property
    def sim_requests(self) -> int:
        return self.sim_hits + self.sim_misses

    @property
    def hit_rate(self) -> float:
        total = self.sim_requests
        return self.sim_hits / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data["simulations"] = self.simulations
        data["sim_requests"] = self.sim_requests
        data["hit_rate"] = self.hit_rate
        return data

    def summary(self, simulating_seconds: float) -> str:
        """One-line human summary (printed by ``repro suite``);
        ``simulating_seconds`` is the self time of the ``sim.*`` spans."""
        line = (
            f"{self.simulations} simulations run, "
            f"{self.sim_hits}/{self.sim_requests} cache hits "
            f"({self.hit_rate:.0%}), "
            f"{self.trace_misses} traces generated "
            f"({self.trace_hits} reused), "
            f"{simulating_seconds:.2f}s simulating"
        )
        if self.batched_points:
            line += (
                f", {self.batched_points} points batched "
                f"({self.batched_groups} groups)"
            )
        if self.degraded:
            line += f", {self.degraded} points degraded to estimates"
        if self.cache_corrupt:
            line += f", {self.cache_corrupt} corrupt cache entries dropped"
        return line
