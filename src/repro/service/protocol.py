"""Wire protocol of the compilation service: newline-delimited JSON.

One request per line, one reply per line, UTF-8, in order per
connection.  The framing is deliberately boring — every language can
speak it from a shell one-liner (``echo '{"job":"ping"}' | nc -U ...``)
— and the interesting guarantees live above it: schema validation with
stable error strings, a hard frame-size ceiling (:data:`MAX_FRAME_BYTES`)
so a misbehaving client cannot balloon the daemon, and reply statuses
that map 1:1 onto the structured error taxonomy of :mod:`repro.errors`.

Request shape::

    {"id": "r1", "job": "crat", "params": {"target": "GAU"}}

``id`` is echoed verbatim in the reply so clients can pipeline.
``job`` is one of :data:`JOB_TYPES`; ``params`` is job-specific and
validated per job.  Any other field is rejected by name.

Reply statuses::

    ok          {"id", "status": "ok", "result": {...}}
    error       {"id", "status": "error", "error": {kind, message,
                 exit_code}}           — the job itself failed, or
                 its reply exceeded MAX_FRAME_BYTES (kind
                 ServiceError, exit_code 7)
    invalid     {"id"?, "status": "invalid", "error": {...}}
                                       — the frame failed validation
    overloaded  {"id", "status": "overloaded", "retry_after": s}
                                       — queue full (429-style)
    drained     {"id", "status": "drained"}  — the server is shutting
                 down and did not run the job; resubmit it
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Optional

#: Protocol revision, echoed by ``ping``/``stats``; bump on breaking
#: changes to the frame shape.
PROTOCOL_VERSION = 2

#: Hard ceiling on one frame (request or reply), newline included.
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Evaluation jobs (queued and executed on workers) …
EVAL_JOBS = ("crat", "simulate", "verify", "suite")
#: … and control jobs (answered inline by the connection handler).
CONTROL_JOBS = ("ping", "stats", "shutdown")
JOB_TYPES = EVAL_JOBS + CONTROL_JOBS

#: Per-job parameter schema: name -> (type, required).  ``params`` keys
#: outside the schema are rejected — typos must not silently change a
#: job's meaning.
_COMMON_PARAMS: Dict[str, tuple] = {
    "target": (str, False),   # app abbreviation (Table 3)
    "ptx": (str, False),      # inline PTX-subset text
    "config": (str, False),   # architecture preset (default "fermi")
}
PARAM_SCHEMAS: Dict[str, Dict[str, tuple]] = {
    "crat": {
        **_COMMON_PARAMS,
        "static": (bool, False),
        "no_shm_spill": (bool, False),
        "verify": (bool, False),
        "passes": (str, False),
    },
    "simulate": {
        **_COMMON_PARAMS,
        "tlp": (int, False),
        "grid": (int, False),
        "verify": (bool, False),
        "passes": (str, False),
    },
    "verify": {
        **_COMMON_PARAMS,
        "strict": (bool, False),
        "pipeline": (bool, False),
    },
    "suite": {
        "config": (str, False),
        "apps": (list, False),
        "verify": (bool, False),
        "passes": (str, False),
    },
    "ping": {},
    "stats": {
        "include_events": (bool, False),
    },
    "shutdown": {
        "drain": (bool, False),
    },
}


class ProtocolError(Exception):
    """A frame failed framing or schema validation (client bug)."""


@dataclasses.dataclass(frozen=True)
class Request:
    """One validated request, ready for the queue."""

    job: str
    params: Dict[str, Any]
    id: Optional[str] = None


# ----------------------------------------------------------------------
# Framing.
# ----------------------------------------------------------------------
def encode_frame(message: Dict[str, Any]) -> bytes:
    """Serialize one message as a single NDJSON frame.

    ``json.dumps`` with default separators never emits raw newlines, so
    the frame invariant (exactly one ``\\n``, at the end) holds by
    construction; oversized payloads are a :class:`ProtocolError`
    rather than a silently unreadable frame on the peer.
    """
    data = json.dumps(message, separators=(",", ":"), sort_keys=True)
    frame = data.encode("utf-8") + b"\n"
    if len(frame) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(frame)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return frame


def decode_frame(line: bytes, require_newline: bool = False) -> Dict[str, Any]:
    """Parse one received line into a message dict.

    Wire read paths pass ``require_newline=True``: a line without its
    trailing ``\\n`` means the peer died mid-write (a daemon killed
    between ``write`` and ``flush``), and even if the fragment happens
    to be parseable JSON it must surface as a typed
    :class:`ProtocolError`, never as a silently short answer.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    if require_newline and not line.endswith(b"\n"):
        raise ProtocolError(
            f"truncated frame ({len(line)} bytes, no trailing newline): "
            "peer died mid-write"
        )
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ProtocolError(f"undecodable frame: {err}")
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(obj).__name__}"
        )
    return obj


# ----------------------------------------------------------------------
# Schema validation.
# ----------------------------------------------------------------------
def validate_request(obj: Dict[str, Any]) -> Request:
    """Validate a decoded frame into a :class:`Request`.

    Every rejection names the offending field — the string travels back
    to the client verbatim, so it has to be actionable on its own.
    """
    known_top = {"id", "job", "params"}
    unknown = sorted(set(obj) - known_top)
    if unknown:
        raise ProtocolError(f"unknown field(s): {', '.join(unknown)}")

    job = obj.get("job")
    if not isinstance(job, str):
        raise ProtocolError("missing or non-string 'job'")
    if job not in JOB_TYPES:
        raise ProtocolError(
            f"unknown job {job!r} (expected one of "
            f"{', '.join(JOB_TYPES)})"
        )

    req_id = obj.get("id")
    if req_id is not None and not isinstance(req_id, str):
        raise ProtocolError("'id' must be a string")

    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be an object")
    schema = PARAM_SCHEMAS[job]
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise ProtocolError(
            f"job {job!r}: unknown param(s): {', '.join(unknown)}"
        )
    for name, (expected, required) in schema.items():
        if name not in params:
            if required:
                raise ProtocolError(f"job {job!r}: missing param {name!r}")
            continue
        value = params[name]
        if expected in (int, float) and isinstance(value, bool):
            raise ProtocolError(
                f"job {job!r}: param {name!r} must be {expected.__name__}"
            )
        if not isinstance(value, expected):
            raise ProtocolError(
                f"job {job!r}: param {name!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
    if job in ("crat", "simulate", "verify"):
        if ("target" in params) == ("ptx" in params):
            raise ProtocolError(
                f"job {job!r}: exactly one of 'target' or 'ptx' is required"
            )
    return Request(job=job, params=dict(params), id=req_id)


# ----------------------------------------------------------------------
# Reply constructors (the only way the server builds replies, so the
# reply vocabulary cannot drift between code paths).
# ----------------------------------------------------------------------
def ok_reply(req_id: Optional[str], result: Dict[str, Any]) -> Dict[str, Any]:
    return {"id": req_id, "status": "ok", "result": result}


def error_reply(
    req_id: Optional[str], kind: str, message: str, exit_code: int
) -> Dict[str, Any]:
    return {
        "id": req_id,
        "status": "error",
        "error": {"kind": kind, "message": message, "exit_code": exit_code},
    }


def invalid_reply(req_id: Optional[str], message: str) -> Dict[str, Any]:
    return {
        "id": req_id,
        "status": "invalid",
        "error": {"kind": "ProtocolError", "message": message, "exit_code": 7},
    }


def overloaded_reply(
    req_id: Optional[str], retry_after: float
) -> Dict[str, Any]:
    """The 429: queue full; ``retry_after`` is the server's estimate of
    when capacity frees up (the client library honors it)."""
    return {
        "id": req_id,
        "status": "overloaded",
        "retry_after": round(retry_after, 3),
    }


def drained_reply(req_id: Optional[str]) -> Dict[str, Any]:
    return {"id": req_id, "status": "drained"}
