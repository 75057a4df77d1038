"""Persistent compilation service: ``repro serve`` / ``repro submit``.

A long-lived daemon hosting one warm
:class:`~repro.engine.engine.EvaluationEngine` behind a
newline-delimited-JSON socket protocol, with single-flight request
deduplication, a bounded priority queue with explicit backpressure, and
graceful checkpointing drain.  See :mod:`repro.service.server` for the
architecture and ``DESIGN.md`` §7 for the rationale.

Concurrent clients that need more cores run several plain daemons, one
socket each, over one ``REPRO_CACHE_DIR``: the disk cache is safe to
share between processes, so every daemon reads what the others
simulated.
"""

from .client import (
    ServiceClient,
    ServiceJobError,
    decorrelated_jitter,
    submit_or_raise,
    unwrap,
)
from .jobs import (
    PreparedJob,
    crat_result_to_dict,
    execute,
    prepare,
    sim_result_to_dict,
)
from .protocol import (
    CONTROL_JOBS,
    EVAL_JOBS,
    JOB_TYPES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    decode_frame,
    encode_frame,
    validate_request,
)
from .queue import InFlightJob, JobQueue, QueueFullError, SingleFlightTable
from .server import (
    QUEUE_CHECKPOINT_NAME,
    SOCKET_ENV,
    ReproServer,
    ServiceStats,
    default_socket_path,
    serve_main,
)

__all__ = [
    "CONTROL_JOBS",
    "EVAL_JOBS",
    "InFlightJob",
    "JOB_TYPES",
    "JobQueue",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "PreparedJob",
    "ProtocolError",
    "QUEUE_CHECKPOINT_NAME",
    "QueueFullError",
    "ReproServer",
    "Request",
    "SOCKET_ENV",
    "ServiceClient",
    "ServiceJobError",
    "ServiceStats",
    "SingleFlightTable",
    "crat_result_to_dict",
    "decode_frame",
    "decorrelated_jitter",
    "default_socket_path",
    "encode_frame",
    "execute",
    "prepare",
    "serve_main",
    "sim_result_to_dict",
    "submit_or_raise",
    "unwrap",
]
