"""Typed instrumentation events and counters for the evaluation engine.

Every observable action of the :class:`~repro.engine.engine.
EvaluationEngine` — a trace generation, a timing simulation, a named
pipeline stage — is recorded as a small frozen dataclass, and the
running totals live in :class:`EngineStats`.  The CLI can dump the
whole event log as JSON (``--trace-json``) and the ``suite`` command
prints the counter summary, which is how the "zero new simulations on
a warm cache" property is verified.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, Dict, List, Union


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One functional trace generation (or trace-cache hit)."""

    kind: ClassVar[str] = "trace"

    key: str  # short cache-key digest
    kernel: str
    grid_blocks: int
    cached: bool
    seconds: float


@dataclasses.dataclass(frozen=True)
class SimulationEvent:
    """One timing simulation of a design point (or a cache hit)."""

    kind: ClassVar[str] = "simulate"

    key: str  # short cache-key digest
    kernel: str
    tlp: int
    scheduler: str
    cached: bool
    #: Where the result came from: "memory", "disk", or "run".
    source: str
    seconds: float


@dataclasses.dataclass(frozen=True)
class BatchEvent:
    """One ``simulate_many`` fan-out batch."""

    kind: ClassVar[str] = "batch"

    points: int
    cache_hits: int
    seconds: float


@dataclasses.dataclass(frozen=True)
class BatchSimEvent:
    """One group of design points evaluated as one batch of the timing
    core (:class:`repro.sim.batch.BatchedSimulator`) instead of point by
    point on the retry rung.  ``points`` is the lane
    count of the group (one lane per TLP); a lane's answer does not
    depend on its batch, so this event is a performance trace, not a
    semantic one.
    """

    kind: ClassVar[str] = "batch-sim"

    points: int
    scheduler: str
    seconds: float


@dataclasses.dataclass(frozen=True)
class StageEvent:
    """One named pipeline stage (OptTLP profiling, candidate search...)."""

    kind: ClassVar[str] = "stage"

    name: str
    seconds: float


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One injected fault observed by the retry rung (test harness).

    ``fault`` is the injection kind (``crash`` or ``fail``); ``token``
    the deterministic decision token (the design point's cache-key
    digest), so a faulty run can be replayed point-by-point.
    """

    kind: ClassVar[str] = "fault"

    fault: str
    token: str
    attempt: int


@dataclasses.dataclass(frozen=True)
class RetryEvent:
    """One failed simulation attempt on the engine's retry rung.

    ``reason`` is the injected fault kind, or ``"crash"`` for any other
    exception out of the simulator; ``final`` marks the attempt after
    which the point is not retried.
    """

    kind: ClassVar[str] = "retry"

    token: str
    attempt: int
    reason: str
    final: bool
    error: str = ""


@dataclasses.dataclass(frozen=True)
class DegradeEvent:
    """One design point served by the analytical estimate instead of
    simulation (its simulation ultimately failed after retries).

    ``estimated`` is always ``True`` — it rides along so trace
    consumers can filter degraded points without knowing the kind —
    and such results are never written to the result cache.
    """

    kind: ClassVar[str] = "degrade"

    kernel: str
    tlp: int
    reason: str
    estimated: bool = True


@dataclasses.dataclass(frozen=True)
class RequestEvent:
    """One compilation-service request, from acceptance to reply.

    Emitted by ``repro serve`` into the shared engine's event log (and
    its periodic structured log lines), so a service trace interleaves
    with the simulations it caused.  ``status`` is the reply status
    (``ok``, ``error``, ``overloaded``, ``expired``, ``drained``);
    ``deduped`` marks requests that attached to an identical in-flight
    job instead of evaluating; ``queue_seconds`` / ``run_seconds``
    split the latency into waiting and execution.
    """

    kind: ClassVar[str] = "request"

    job: str
    status: str
    deduped: bool
    queue_seconds: float
    run_seconds: float


@dataclasses.dataclass(frozen=True)
class CacheCorruptEvent:
    """One corrupt/truncated/legacy persistent-cache entry, detected by
    checksum verification on read and deleted (the point re-simulates,
    or the memoised stage recomputes, instead of silently missing
    forever)."""

    kind: ClassVar[str] = "cache_corrupt"

    path: str
    reason: str


EngineEvent = Union[
    TraceEvent,
    SimulationEvent,
    BatchEvent,
    BatchSimEvent,
    StageEvent,
    FaultEvent,
    RetryEvent,
    DegradeEvent,
    RequestEvent,
    CacheCorruptEvent,
]


def event_to_dict(event: EngineEvent) -> Dict[str, object]:
    """Render one event as a JSON-ready dict (``kind`` included)."""
    payload: Dict[str, object] = {"kind": event.kind}
    payload.update(dataclasses.asdict(event))
    return payload


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
    retries: int = 0
    faults_injected: int = 0
    degraded: int = 0
    sim_failures: int = 0
    cache_corrupt: int = 0
    #: Pure-stage memo lookups (:meth:`EvaluationEngine.memo`): memory
    #: hits, disk hits and computes, one of the three per lookup.
    memo_hits: int = 0
    memo_disk_hits: int = 0
    memo_misses: int = 0
    sim_seconds: float = 0.0
    trace_seconds: float = 0.0
    stage_seconds: Dict[str, float] = dataclasses.field(default_factory=dict)

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

    def record_stage(self, name: str, seconds: float) -> None:
        self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + seconds

    def to_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data["simulations"] = self.simulations
        data["sim_requests"] = self.sim_requests
        data["hit_rate"] = self.hit_rate
        return data

    def summary(self) -> str:
        """One-line human summary (printed by ``repro suite``)."""
        line = (
            f"{self.simulations} simulations run, "
            f"{self.sim_hits}/{self.sim_requests} cache hits "
            f"({self.hit_rate:.0%}), "
            f"{self.trace_misses} traces generated "
            f"({self.trace_hits} reused), "
            f"{self.sim_seconds + self.trace_seconds:.2f}s simulating"
        )
        if self.batched_points:
            line += (
                f", {self.batched_points} points batched "
                f"({self.batched_groups} groups)"
            )
        if self.retries:
            line += f", {self.retries} retries"
        if self.degraded:
            line += f", {self.degraded} points degraded to estimates"
        if self.cache_corrupt:
            line += f", {self.cache_corrupt} corrupt cache entries dropped"
        return line
