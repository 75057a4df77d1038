"""Shared evaluation engine: cached, instrumented simulation.

The single owner of trace generation and timing simulation for the
whole CRAT pipeline.  See :mod:`repro.engine.engine` for the design and
:mod:`repro.engine.faults` for the deterministic fault-injection
harness that exercises its recovery paths.
"""

from .cache import (
    CACHE_DIR_ENV,
    CACHE_MAX_ENTRIES_ENV,
    CacheCorruptionError,
    SimResultCache,
    cache_schema_version,
    config_signature,
    decode_entry,
    encode_entry,
    make_sim_key,
    resolve_max_entries,
)
from .engine import (
    EvaluationEngine,
    SimRequest,
    configure,
    get_engine,
    set_engine,
)
from .events import (
    BatchEvent,
    BatchSimEvent,
    CacheCorruptEvent,
    DegradeEvent,
    EngineStats,
    FaultEvent,
    RequestEvent,
    RetryEvent,
    SimulationEvent,
    StageEvent,
    TraceEvent,
    event_to_dict,
)
from .faults import (
    FAULTS_ENV,
    FAULTS_SEED_ENV,
    FaultPlan,
    FaultSpecError,
    InjectedFault,
)

__all__ = [
    "BatchEvent",
    "BatchSimEvent",
    "CACHE_DIR_ENV",
    "CACHE_MAX_ENTRIES_ENV",
    "CacheCorruptEvent",
    "CacheCorruptionError",
    "DegradeEvent",
    "EngineStats",
    "EvaluationEngine",
    "FAULTS_ENV",
    "FAULTS_SEED_ENV",
    "FaultEvent",
    "FaultPlan",
    "FaultSpecError",
    "InjectedFault",
    "RequestEvent",
    "RetryEvent",
    "SimRequest",
    "SimResultCache",
    "SimulationEvent",
    "StageEvent",
    "TraceEvent",
    "cache_schema_version",
    "config_signature",
    "configure",
    "decode_entry",
    "encode_entry",
    "event_to_dict",
    "get_engine",
    "make_sim_key",
    "resolve_max_entries",
    "set_engine",
]
