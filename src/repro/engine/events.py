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
    jobs: int
    seconds: float


@dataclasses.dataclass(frozen=True)
class BatchSimEvent:
    """One group of design points evaluated by the batched SoA core
    (:class:`repro.sim.batch.BatchedSimulator`) instead of point-by-
    point supervised simulation.  ``points`` is the lane count of the
    group (one lane per TLP); results are bit-identical to the scalar
    path, so this event is a performance trace, not a semantic one.
    """

    kind: ClassVar[str] = "batchsim"

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
class FastPathEvent:
    """One tier-1 analytical screening pass over a candidate set.

    ``scored`` design points were ranked analytically, ``simulated`` of
    them went on to cycle-level simulation and ``skipped`` were pruned.
    ``agreement`` is the pairwise rank concordance between the
    fast-path scores and the simulated cycles of the survivors (the
    calibration signal; 1.0 means perfectly monotone-consistent).
    """

    kind: ClassVar[str] = "fastpath"

    kernel: str
    scored: int
    simulated: int
    skipped: int
    top_k: int
    agreement: float
    seconds: float


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One injected fault observed by the supervisor (test harness).

    ``fault`` is the injection kind (``crash``, ``hang``, ``fail``,
    ``corrupt-cache``); ``token`` the deterministic decision token (the
    design point's cache-key digest), so a faulty run can be replayed
    point-by-point.
    """

    kind: ClassVar[str] = "fault"

    fault: str
    token: str
    attempt: int


@dataclasses.dataclass(frozen=True)
class RetryEvent:
    """One supervised task attempt that failed and will be retried.

    ``reason`` is ``"timeout"``, ``"pool-broken"``, ``"crash"`` (an
    exception out of the worker), or ``"no-pool"``; ``final`` marks
    the attempt after which no retry budget remains.
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
class ShardEvent:
    """One fleet-supervision action on an engine shard.

    Emitted by the fleet router/supervisor into its engine's event log
    (so ``--trace-json`` and the periodic structured log lines carry
    them) and mirrored into the fleet counters that ``repro fleet
    status`` and the chaos smoke read — recovery behavior is asserted
    from data, not scraped from logs.  ``action`` is one of ``spawn``,
    ``ready``, ``heartbeat-miss``, ``dead``, ``restart``, ``restore``,
    ``handoff`` or ``reroute``; ``epoch`` counts the shard's restarts
    (0 = first boot).
    """

    kind: ClassVar[str] = "shard"

    shard: str
    action: str
    epoch: int
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class CacheCorruptEvent:
    """One corrupt/truncated/legacy persistent-cache entry, detected by
    checksum verification on read and deleted (the point re-simulates
    instead of silently missing forever)."""

    kind: ClassVar[str] = "cache_corrupt"

    path: str
    reason: str


@dataclasses.dataclass(frozen=True)
class CheckpointEvent:
    """One design point restored from the checkpoint journal on resume."""

    kind: ClassVar[str] = "checkpoint"

    key: str
    kernel: str
    tlp: int


EngineEvent = Union[
    TraceEvent,
    SimulationEvent,
    BatchEvent,
    BatchSimEvent,
    StageEvent,
    FastPathEvent,
    FaultEvent,
    RetryEvent,
    DegradeEvent,
    RequestEvent,
    ShardEvent,
    CacheCorruptEvent,
    CheckpointEvent,
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
    fastpath_scored: int = 0
    fastpath_skipped: int = 0
    retries: int = 0
    timeouts: int = 0
    faults_injected: int = 0
    degraded: int = 0
    sim_failures: int = 0
    cache_corrupt: int = 0
    checkpoint_hits: int = 0
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
        if self.fastpath_scored:
            line += (
                f", fast path skipped {self.fastpath_skipped}/"
                f"{self.fastpath_scored} scored points"
            )
        if self.retries:
            line += f", {self.retries} retries ({self.timeouts} timeouts)"
        if self.degraded:
            line += f", {self.degraded} points degraded to estimates"
        if self.cache_corrupt:
            line += f", {self.cache_corrupt} corrupt cache entries dropped"
        if self.checkpoint_hits:
            line += f", {self.checkpoint_hits} points resumed from checkpoint"
        return line
