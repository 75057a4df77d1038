"""Shared evaluation engine: cached, instrumented simulation.

The single owner of trace generation and timing simulation for the
whole CRAT pipeline.  See :mod:`repro.engine.engine` for the design.
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
from .events import EngineStats, Span, SpanRecorder, self_seconds

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_MAX_ENTRIES_ENV",
    "CacheCorruptionError",
    "EngineStats",
    "EvaluationEngine",
    "SimRequest",
    "SimResultCache",
    "Span",
    "SpanRecorder",
    "cache_schema_version",
    "config_signature",
    "configure",
    "decode_entry",
    "encode_entry",
    "get_engine",
    "make_sim_key",
    "resolve_max_entries",
    "self_seconds",
    "set_engine",
]
