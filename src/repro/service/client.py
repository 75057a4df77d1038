"""Client library for the compilation service (+ ``repro submit``).

:class:`ServiceClient` speaks the NDJSON protocol over a unix socket or
TCP, and bakes in the polite-client behavior the server's backpressure
contract expects:

* an ``overloaded`` reply is retried after the server's ``retry_after``
  hint *plus* decorrelated jitter — the hint is a hard floor, the
  jitter on top is what keeps a thundering herd from re-arriving in
  lockstep at exactly ``retry_after`` seconds;
* a connection failure (daemon restarting, socket not yet bound)
  retries on the same jittered schedule;
* everything else — job errors and ``drained`` included — is returned
  to the caller exactly once, as the server sent it: a draining daemon
  will not answer a retry either.

The backoff is AWS-style *decorrelated jitter*: each retry sleeps
``uniform(base, 3 * previous_sleep)`` capped at ``cap``.  Unlike the
old deterministic ladder (``base * growth**attempt``), two clients
rejected at the same instant do not compute the same schedule and
collide again on every subsequent attempt.  The RNG is injectable so
tests can pin the schedule.

A reply cut short (the daemon killed mid-write) is a typed
:class:`~repro.errors.ServiceError`, never a JSON traceback.  Clients
of several daemons over one ``REPRO_CACHE_DIR`` pick a socket each.

The library never interprets job results; it returns reply dicts.
:func:`submit_or_raise` is the one-call convenience that converts
non-``ok`` replies into the structured :mod:`repro.errors` taxonomy
(transport problems become :class:`~repro.errors.ServiceError`, job
failures are re-raised as their original kind's exit code).
"""

from __future__ import annotations

import itertools
import random
import socket
import time
from typing import Any, Dict, Optional

from ..errors import ServiceError
from .protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from .server import default_socket_path

#: Decorrelated-jitter parameters for connect failures / overload
#: rejections: sleep ``uniform(base, 3 * previous_sleep)``, capped.
DEFAULT_BACKOFF_BASE = 0.1
DEFAULT_BACKOFF_CAP = 5.0


def decorrelated_jitter(
    rng: random.Random,
    previous_sleep: float,
    base: float = DEFAULT_BACKOFF_BASE,
    cap: float = DEFAULT_BACKOFF_CAP,
) -> float:
    """Next sleep in a decorrelated-jitter schedule.

    ``uniform(base, 3 * previous_sleep)`` clamped to ``[base, cap]``;
    pass the returned value back in as ``previous_sleep`` next time.
    Growth is still roughly exponential in expectation, but no two
    clients share a schedule.
    """
    return min(cap, rng.uniform(base, max(base, previous_sleep * 3.0)))


class ServiceClient:
    """One connection to a ``repro serve`` daemon.

    Connects lazily on first use and transparently reconnects after a
    dropped connection.  Not thread-safe: one client per thread (the
    server happily accepts many connections).
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: Optional[float] = 60.0,
        max_retries: int = 5,
        sleep=time.sleep,
        rng: Optional[random.Random] = None,
    ):
        if host is not None and port is None:
            raise ValueError("TCP connections need both host and port")
        self.host = host
        self.port = port
        self.socket_path = (
            None if host is not None else (socket_path or default_socket_path())
        )
        self.timeout = timeout
        self.max_retries = max_retries
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Connection plumbing.
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        if self._sock is not None:
            return
        try:
            if self.socket_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                sock.connect(self.socket_path)
            else:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
        except OSError as err:
            raise ServiceError(
                f"cannot reach compilation service at "
                f"{self.socket_path or f'{self.host}:{self.port}'}: {err}"
            )
        self._sock = sock
        self._reader = sock.makefile("rb")

    def close(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request / reply.
    # ------------------------------------------------------------------
    def request_once(
        self,
        job: str,
        params: Optional[Dict[str, Any]] = None,
        req_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """One round trip, no retries; transport faults raise
        :class:`ServiceError`."""
        self._connect()
        message: Dict[str, Any] = {
            "id": req_id or f"c{next(self._ids)}",
            "job": job,
            "params": params or {},
        }
        assert self._sock is not None and self._reader is not None
        try:
            self._sock.sendall(encode_frame(message))
            line = self._reader.readline(MAX_FRAME_BYTES + 2)
        except OSError as err:
            self.close()
            raise ServiceError(f"connection to service lost: {err}")
        if not line:
            self.close()
            raise ServiceError("service closed the connection mid-request")
        try:
            # require_newline: a peer killed mid-write leaves a partial
            # frame with no terminator — that must surface as a typed
            # transport error even if the fragment parses as JSON.
            return decode_frame(line, require_newline=True)
        except ProtocolError as err:
            self.close()
            raise ServiceError(f"undecodable reply from service: {err}")

    def submit(
        self,
        job: str,
        params: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Round trip with the retry/backoff policy: decorrelated
        jitter on transport faults, the server's ``retry_after`` hint
        as a hard floor (jitter added *on top*) on ``overloaded``,
        first definitive reply returned.  Exhausting ``max_retries``
        raises :class:`ServiceError` (exit 7)."""
        last_error: Optional[ServiceError] = None
        sleep_s = DEFAULT_BACKOFF_BASE
        for attempt in range(self.max_retries + 1):
            try:
                reply = self.request_once(job, params)
            except ServiceError as err:
                last_error = err
                if attempt < self.max_retries:
                    sleep_s = decorrelated_jitter(self._rng, sleep_s)
                    self._sleep(sleep_s)
                continue
            if reply.get("status") == "overloaded":
                if attempt < self.max_retries:
                    hint = reply.get("retry_after")
                    floor = (
                        float(hint)
                        if isinstance(hint, (int, float))
                        and not isinstance(hint, bool)
                        else 0.0
                    )
                    sleep_s = decorrelated_jitter(self._rng, sleep_s)
                    # Additive, not max(): with max() every client that
                    # got the same hint wakes at the same instant and
                    # stampedes again; hint + jitter keeps the floor
                    # AND spreads the re-arrivals.
                    self._sleep(floor + sleep_s)
                    continue
                last_error = ServiceError(
                    f"service overloaded after {attempt + 1} attempts",
                    retry_after=reply.get("retry_after"),
                )
                break
            return reply
        assert last_error is not None
        raise last_error

    # Convenience wrappers -------------------------------------------------
    def ping(self) -> bool:
        reply = self.submit("ping")
        return reply.get("status") == "ok"

    def stats(self, include_events: bool = False) -> Dict[str, Any]:
        return unwrap(self.submit(
            "stats", {"include_events": include_events}
        ))

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        return unwrap(self.submit("shutdown", {"drain": drain}))


def unwrap(reply: Dict[str, Any]) -> Dict[str, Any]:
    """Convert a reply into its result payload or a structured error.

    ``error`` replies re-raise as a :class:`ServiceJobError` carrying
    the job's original exit code, so ``repro submit`` exits exactly as
    the one-shot command would have; every other non-``ok`` status is a
    transport-level :class:`~repro.errors.ServiceError` (exit 7).
    """
    status = reply.get("status")
    if status == "ok":
        result = reply.get("result")
        return result if isinstance(result, dict) else {}
    if status == "error":
        info = reply.get("error") or {}
        raise ServiceJobError(
            kind=str(info.get("kind", "ReproError")),
            message=str(info.get("message", "job failed")),
            job_exit_code=int(info.get("exit_code", 1)),
        )
    if status == "overloaded":
        raise ServiceError(
            "service overloaded", retry_after=reply.get("retry_after")
        )
    if status == "drained":
        raise ServiceError(
            "service drained before the job ran; resubmit"
        )
    if status == "invalid":
        info = reply.get("error") or {}
        raise ServiceError(f"request rejected: {info.get('message')}")
    raise ServiceError(f"unrecognized reply status {status!r}")


class ServiceJobError(ServiceError):
    """A job the service ran on our behalf failed.

    The exit code is the *job's* (``ParseError`` 2, ``AllocationError``
    3, ...), not the transport's 7: scripting against ``repro submit``
    sees the same codes as against the one-shot CLI.
    """

    def __init__(self, kind: str, message: str, job_exit_code: int):
        super().__init__(f"{kind}: {message}")
        self.job_kind = kind
        self.exit_code = job_exit_code


def submit_or_raise(
    client: ServiceClient,
    job: str,
    params: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One call: submit with retries, unwrap, raise taxonomy errors."""
    return unwrap(client.submit(job, params))
