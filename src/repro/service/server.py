"""``repro serve`` — the persistent compilation daemon.

One process owns one warm :class:`~repro.engine.engine.EvaluationEngine`
and serves evaluation requests over a unix socket (or TCP via
``--listen``).  The pieces, front to back:

* **Connection handlers** (one thread per connection) speak the NDJSON
  protocol: validate frames, answer control jobs (``ping``, ``stats``,
  ``shutdown``) inline, and funnel evaluation jobs through admission.
* **Admission**: every evaluation request is its own job.  The
  connection thread runs :func:`~repro.service.jobs.prepare` (a bad
  request is answered ``error`` and never takes a queue slot), then
  puts the job in the bounded FIFO queue or — queue full — refuses it
  with an ``overloaded`` reply carrying a ``Retry-After`` hint
  (backpressure is explicit, never an unbounded backlog).
* **Workers** (a small thread pool) take jobs in arrival order and run
  each once on the shared engine, in this process.  To spread
  concurrent clients over more cores, run several daemons, one socket
  each, over one ``REPRO_CACHE_DIR``.
* **Graceful drain**: on SIGTERM the listener closes, executing jobs
  finish and are answered, and queued-but-unstarted jobs — and any
  request that arrives on an open connection meanwhile — are answered
  ``drained`` so their clients can resubmit.  Every accepted request
  ends in exactly one counter: ``accepted == completed + failed +
  rejected_overloaded + drained``.  The drain writes nothing; results
  already live in the engine's caches.
* **Observability**: a ``stats`` request returns service counters
  (queue depth, p50/p95 latency per job type) plus the engine
  snapshot.  Every evaluation reply is a ``service.request`` span in
  the engine's span recorder, from that request's admission to its
  reply, and every executed job a ``service.execute`` span on its
  worker, so a service trace nests the simulations each request
  caused; ``--log-interval`` emits periodic structured JSON lines.  A
  reply too large to frame is answered with a ``ServiceError`` reply
  instead, and the connection stays open.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import tempfile
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, TextIO, Tuple

from ..engine import get_engine, set_engine
from ..engine.engine import EvaluationEngine
from ..errors import ServiceError, classify_error
from . import jobs as jobs_mod
from .protocol import (
    CONTROL_JOBS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    decode_frame,
    drained_reply,
    encode_frame,
    error_reply,
    invalid_reply,
    ok_reply,
    overloaded_reply,
    validate_request,
)
from .queue import Job, JobQueue, QueueFullError

#: Environment variable naming the default unix socket path.
SOCKET_ENV = "REPRO_SOCKET"

#: How many recent per-job latencies feed the p50/p95 estimates.
_LATENCY_WINDOW = 512

#: The one counter each evaluation reply status ends its request in.
_OUTCOME_COUNTERS = {
    "ok": "completed",
    "error": "failed",
    "overloaded": "rejected_overloaded",
    "drained": "drained",
}


def default_socket_path() -> str:
    """``$REPRO_SOCKET`` or a per-user path under the temp directory."""
    env = os.environ.get(SOCKET_ENV, "").strip()
    if env:
        return env
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-serve-{uid}.sock")


def _percentile(values: List[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


class ServiceStats:
    """Thread-safe service counters + a bounded latency window.

    Counts are per request: each evaluation request that passes frame
    validation is ``accepted`` once and ends in the one counter of its
    reply status (:data:`_OUTCOME_COUNTERS`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.monotonic()
        self.accepted = 0
        self.completed = 0
        self.failed = 0
        self.rejected_invalid = 0
        self.rejected_overloaded = 0
        self.drained = 0
        self.executed = 0
        self.connections = 0
        self._latency: Dict[str, deque] = {}
        self._queue_latency: Dict[str, deque] = {}

    def bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + by)

    def observe_latency(self, job: str, queue_s: float, total_s: float) -> None:
        with self._lock:
            self._latency.setdefault(
                job, deque(maxlen=_LATENCY_WINDOW)
            ).append(total_s)
            self._queue_latency.setdefault(
                job, deque(maxlen=_LATENCY_WINDOW)
            ).append(queue_s)

    def mean_latency(self) -> float:
        with self._lock:
            values = [v for window in self._latency.values() for v in window]
        return sum(values) / len(values) if values else 0.0

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            latency = {
                job: {
                    "count": len(window),
                    "p50": _percentile(list(window), 0.50),
                    "p95": _percentile(list(window), 0.95),
                    "queue_p50": _percentile(
                        list(self._queue_latency.get(job, ())), 0.50
                    ),
                }
                for job, window in sorted(self._latency.items())
            }
            return {
                "uptime_seconds": time.monotonic() - self.started_at,
                "accepted": self.accepted,
                "completed": self.completed,
                "failed": self.failed,
                "rejected_invalid": self.rejected_invalid,
                "rejected_overloaded": self.rejected_overloaded,
                # Always 0; read by perfbench/daemon.py:conservation.
                "expired": 0,
                "drained": self.drained,
                "executed": self.executed,
                "connections": self.connections,
                "latency": latency,
            }


class ReproServer:
    """The daemon: socket front-end, admission, workers, drain."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        engine: Optional[EvaluationEngine] = None,
        workers: int = 2,
        queue_limit: int = 64,
        log_stream: Optional[TextIO] = None,
        log_interval: float = 0.0,
    ):
        if host is not None:
            self._family = socket.AF_INET
            self._bind_to: Any = (host, port or 0)
            self.socket_path = None
        else:
            self._family = socket.AF_UNIX
            self.socket_path = socket_path or default_socket_path()
            self._bind_to = self.socket_path
        if engine is not None:
            set_engine(engine)
        self.engine = engine if engine is not None else get_engine()
        self.workers = max(1, workers)
        self.stats = ServiceStats()
        self._queue = JobQueue(queue_limit)
        self._log_stream = log_stream
        self._log_interval = log_interval
        #: Id of the newest ``service.request`` span logged (0: none).
        self._last_logged = 0
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._conn_threads: List[threading.Thread] = []
        self._draining = False
        self._stopped = threading.Event()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        if self.socket_path:
            return self.socket_path
        assert self._listener is not None
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    @property
    def port(self) -> Optional[int]:
        if self.socket_path or self._listener is None:
            return None
        return self._listener.getsockname()[1]

    def start(self) -> None:
        if self.socket_path and os.path.exists(self.socket_path):
            # A previous daemon's stale socket: connect to distinguish a
            # live server (refuse to double-bind) from a leftover file.
            probe = socket.socket(socket.AF_UNIX)
            try:
                probe.settimeout(0.25)
                probe.connect(self.socket_path)
            except OSError:
                os.unlink(self.socket_path)
            else:
                probe.close()
                raise ServiceError(
                    f"a server is already listening on {self.socket_path}"
                )
            finally:
                probe.close()
        self._listener = socket.socket(self._family, socket.SOCK_STREAM)
        if self._family == socket.AF_INET:
            self._listener.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
            )
        self._listener.bind(self._bind_to)
        self._listener.listen(64)
        # A finite accept timeout keeps shutdown deterministic: closing
        # a listener does not reliably wake a thread already blocked in
        # accept() (and the fd number may even be reused), so the
        # accept loop polls the draining flag instead of trusting the
        # close to interrupt it.
        self._listener.settimeout(0.2)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        accept = threading.Thread(
            target=self._accept_loop, name="repro-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        if self._log_interval > 0:
            logger = threading.Thread(
                target=self._log_loop, name="repro-log", daemon=True
            )
            logger.start()
            self._threads.append(logger)
        self._log_line({"kind": "service_ready", "address": self.address,
                        "workers": self.workers,
                        "queue_limit": self._queue.limit})

    def serve_forever(self) -> None:
        self._stopped.wait()

    def pause_workers(self) -> None:
        """Hold workers before their next job (maintenance / tests).

        Gating happens inside the queue, so even a worker already
        blocked waiting for work cannot pick up another job until
        :meth:`resume_workers`; admission keeps running, so requests
        pile up against the bounded queue exactly as they would under
        a long-running job."""
        self._queue.pause()

    def resume_workers(self) -> None:
        self._queue.resume()

    def shutdown(self, drain: bool = True) -> None:
        """Stop the daemon: queued jobs, and requests that arrive from
        now on, are answered ``drained``; with ``drain`` (the SIGTERM
        path) executing jobs get up to 30 s to finish and answer, so
        every accepted request gets a reply."""
        with self._lock:
            if self._draining:
                return
            self._draining = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        pending = self._queue.drain_remaining()
        for job in pending:
            job.finish("drained")
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=30.0 if drain else 1.0)
        # Connection threads may be parked in readline() on idle client
        # sockets; give the pack a short collective grace to flush their
        # final replies, then let the daemon threads die with us.
        grace_until = time.monotonic() + 2.0
        for thread in list(self._conn_threads):
            if thread is threading.current_thread():
                continue
            remaining = grace_until - time.monotonic()
            if remaining <= 0:
                break
            thread.join(timeout=remaining)
        if self.socket_path and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        self._log_line({
            "kind": "service_drained" if drain else "service_stopped",
            "drained_jobs": len(pending),
            "stats": self.stats.to_dict(),
        })
        self._stopped.set()

    # ------------------------------------------------------------------
    # Accept / connection handling.
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._draining:
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed (shutdown)
            conn.settimeout(None)
            self.stats.bump("connections")
            thread = threading.Thread(
                target=self._handle_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._conn_threads.append(thread)
            if len(self._conn_threads) > 64:
                self._conn_threads = [
                    t for t in self._conn_threads if t.is_alive()
                ]

    def _handle_connection(self, conn: socket.socket) -> None:
        try:
            reader = conn.makefile("rb")
            while True:
                line = reader.readline(MAX_FRAME_BYTES + 2)
                if not line:
                    return
                if not line.endswith(b"\n") and len(line) > MAX_FRAME_BYTES:
                    # An oversized frame cannot be resynchronized —
                    # report and drop the connection.
                    self.stats.bump("rejected_invalid")
                    self._send(conn, invalid_reply(
                        None,
                        f"frame exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})",
                    ))
                    return
                reply = self._handle_frame(line)
                if reply is not None:
                    self._send(conn, reply)
        except OSError:
            pass  # peer went away mid-conversation
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _send(self, conn: socket.socket, reply: Dict[str, Any]) -> None:
        try:
            frame = encode_frame(reply)
        except ProtocolError as err:
            # Too large to frame (``stats`` with a long span log): the
            # client gets a typed transport error and the connection
            # stays usable for its next request.
            error = ServiceError(f"reply not sent: {err}")
            frame = encode_frame(error_reply(
                reply.get("id"), error.kind, str(error), error.exit_code
            ))
        try:
            conn.sendall(frame)
        except OSError:
            pass

    def _handle_frame(self, line: bytes) -> Optional[Dict[str, Any]]:
        req_id: Optional[str] = None
        try:
            obj = decode_frame(line)
            raw_id = obj.get("id")
            req_id = raw_id if isinstance(raw_id, str) else None
            request = validate_request(obj)
        except ProtocolError as err:
            self.stats.bump("rejected_invalid")
            return invalid_reply(req_id, str(err))
        if request.job in CONTROL_JOBS:
            return self._handle_control(request)
        with self.engine.spans.request(request.id or ""):
            return self._handle_eval(request)

    def _handle_control(self, request: Request) -> Dict[str, Any]:
        if request.job == "ping":
            return ok_reply(request.id, {
                "pong": True, "protocol_version": PROTOCOL_VERSION,
            })
        if request.job == "stats":
            return ok_reply(request.id, self.stats_payload(
                include_events=bool(request.params.get("include_events"))
            ))
        # shutdown: acknowledge first, then drain from a fresh thread so
        # the reply reaches the client before the connection dies.
        drain = request.params.get("drain", True)
        threading.Thread(
            target=self.shutdown, kwargs={"drain": drain}, daemon=True
        ).start()
        return ok_reply(request.id, {"shutting_down": True, "drain": drain})

    def _retry_after_hint(self) -> float:
        """Estimate when a queue slot frees: depth x recent mean job
        latency, spread over the worker pool; clamped to [0.1s, 30s]."""
        mean = self.stats.mean_latency() or 0.5
        depth = len(self._queue) + 1
        return max(0.1, min(30.0, depth * mean / self.workers))

    def _handle_eval(self, request: Request) -> Dict[str, Any]:
        """Admit one evaluation request as its own job, wait for its
        outcome and answer it.  The request is counted ``accepted`` and
        then once in the counter of its reply status, and its reply is
        a ``service.request`` span from its admission to now.  An ``ok``
        reply also feeds the latency window from the same two readings
        (its queue wait ends where a worker took the job up)."""
        self.stats.bump("accepted")
        admitted = time.perf_counter()
        job = Job(request)
        try:
            job.prepared = jobs_mod.prepare(request)
            self._queue.put(job)
        except QueueFullError:
            if self._draining:
                job.finish("drained")
            else:
                job.finish("overloaded", self._retry_after_hint())
        except Exception as err:  # noqa: BLE001 — answered, never raised
            job.finish("error", _error_of(err))
        else:
            job.wait()
        status, payload = job.outcome  # type: ignore[misc]
        self.stats.bump(_OUTCOME_COUNTERS[status])
        replied = time.perf_counter()
        self.engine.spans.record(
            "service.request", admitted, replied,
            job=request.job, status=status,
        )
        if status == "ok":
            self.stats.observe_latency(
                request.job,
                max(0.0, job.started_at - admitted),
                replied - admitted,
            )
            return ok_reply(request.id, payload)
        if status == "error":
            kind, message, exit_code = payload
            return error_reply(request.id, kind, message, exit_code)
        if status == "overloaded":
            return overloaded_reply(request.id, payload)
        return drained_reply(request.id)

    # ------------------------------------------------------------------
    # Workers.
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            self._execute_job(job)

    def _execute_job(self, job: Job) -> None:
        job.started_at = time.perf_counter()
        # Taken off the job, so its kernel and the in-process result
        # ``execute`` leaves on it go when this call returns: a worker
        # holds its last job until it takes the next.
        prepared, job.prepared = job.prepared, None
        try:
            with self.engine.spans.request(job.request.id or ""):
                with self.engine.span("service.execute", job=job.request.job):
                    result = jobs_mod.execute(prepared)
        except BaseException as err:  # noqa: BLE001 — workers never die
            job.finish("error", _error_of(err))
        else:
            job.finish("ok", result)
        finally:
            self.stats.bump("executed")

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------
    def stats_payload(self, include_events: bool = False) -> Dict[str, Any]:
        service = self.stats.to_dict()
        service["queue_depth"] = len(self._queue)
        service["queue_limit"] = self._queue.limit
        service["workers"] = self.workers
        return {
            "protocol_version": PROTOCOL_VERSION,
            "service": service,
            "engine": self.engine.snapshot(spans=include_events),
        }

    def _log_line(self, payload: Dict[str, Any]) -> None:
        if self._log_stream is None:
            return
        try:
            self._log_stream.write(json.dumps(payload, sort_keys=True) + "\n")
            self._log_stream.flush()
        except (OSError, ValueError):
            pass

    def _log_loop(self) -> None:
        while not self._stopped.wait(self._log_interval):
            if self._draining:
                return
            self._log_tick()

    def _log_tick(self) -> None:
        """One periodic log: the service counters, then every
        ``service.request`` span recorded since the last tick, each
        once, in the ``--trace-json`` span form."""
        payload = self.stats.to_dict()
        payload["queue_depth"] = len(self._queue)
        self._log_line({"kind": "service_stats", **payload})
        fresh = []
        # Newest first, back to the last span logged; spans land in
        # closing order, which their ids need not follow.
        for span in reversed(list(self.engine.spans.spans)):
            if span.id == self._last_logged:
                break
            if span.name == "service.request":
                fresh.append(span)
        if fresh:
            self._last_logged = fresh[0].id
        for span in reversed(fresh):
            self._log_line({"kind": "span", **span.to_dict()})


def _error_of(err: BaseException) -> Tuple[str, str, int]:
    """An ``error`` outcome: the classified error's kind, message and
    exit code."""
    classified = classify_error(err)
    return classified.kind, str(classified), classified.exit_code


def serve_main(
    socket_path: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    workers: int = 2,
    queue_limit: int = 64,
    log_interval: float = 30.0,
    log_stream: Optional[TextIO] = None,
) -> int:
    """Blocking entry point used by ``repro serve``: boot, announce,
    install SIGTERM/SIGINT drain handlers, run until stopped."""
    import signal

    server = ReproServer(
        socket_path=socket_path,
        host=host,
        port=port,
        workers=workers,
        queue_limit=queue_limit,
        log_stream=log_stream if log_stream is not None else sys.stderr,
        log_interval=log_interval,
    )
    server.start()

    def _drain(signum, frame):  # noqa: ARG001
        threading.Thread(
            target=server.shutdown, kwargs={"drain": True}, daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    print(f"repro serve: listening on {server.address}", file=sys.stderr)
    server.serve_forever()
    return 0
