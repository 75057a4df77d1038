"""Service-side job bookkeeping: one record per request, one FIFO queue.

:class:`Job`
    One admitted evaluation request: its prepared work, when a worker
    took it up, and its outcome.  The connection thread that admitted
    it waits on it and builds the reply from the outcome.

:class:`JobQueue`
    A bounded, thread-safe FIFO queue of jobs.  ``put`` never blocks —
    a full queue raises :class:`QueueFullError` immediately so the
    connection handler can send the 429-style ``overloaded`` reply with
    a ``retry_after`` hint instead of silently building an unbounded
    backlog (explicit backpressure beats implicit latency).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from .protocol import Request


class QueueFullError(Exception):
    """The bounded queue refused a job: it is full, or a drain closed
    it (backpressure signal)."""

    def __init__(self, depth: int, limit: int):
        self.depth = depth
        self.limit = limit
        super().__init__(f"queue full ({depth}/{limit})")


class Job:
    """One request's unit of work.

    ``finish`` publishes the outcome exactly once and wakes the waiting
    connection thread.  Outcomes are ``("ok", result)``, ``("error",
    (kind, message, exit_code))``, ``("overloaded", retry_after)`` or
    ``("drained", None)``.
    """

    def __init__(self, request: Request):
        self.request = request
        #: The resolved :class:`~repro.service.jobs.PreparedJob` the
        #: worker executes (and takes off the job when it starts).
        self.prepared: Optional[object] = None
        #: ``time.perf_counter()`` when a worker took the job up.
        self.started_at: Optional[float] = None
        self.outcome: Optional[Tuple[str, Any]] = None
        self._done = threading.Event()

    def finish(self, status: str, payload: Any = None) -> None:
        self.outcome = (status, payload)
        self._done.set()

    def wait(self) -> None:
        self._done.wait()


class JobQueue:
    """Bounded FIFO queue of :class:`Job`.

    ``get`` blocks until a job or until the queue is closed and empty,
    when it yields ``None`` (the worker's exit signal).
    ``drain_remaining`` atomically closes and empties the queue during
    shutdown.
    """

    def __init__(self, limit: int):
        if limit <= 0:
            raise ValueError("queue limit must be positive")
        self.limit = limit
        self._jobs: Deque[Job] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._paused = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def put(self, job: Job) -> None:
        with self._not_empty:
            if self._closed or len(self._jobs) >= self.limit:
                raise QueueFullError(len(self._jobs), self.limit)
            self._jobs.append(job)
            self._not_empty.notify()

    def get(self) -> Optional[Job]:
        with self._not_empty:
            while self._paused or not self._jobs:
                if self._closed and not self._jobs:
                    return None
                self._not_empty.wait()
            return self._jobs.popleft()

    def pause(self) -> None:
        """Hold consumers: ``put`` keeps admitting, ``get`` blocks.

        The gate lives here — not in the consumer's loop — so a worker
        already parked inside ``get`` cannot slip one more job out
        before the pause lands (maintenance and the concurrency tests
        rely on the queue depth being exact while paused)."""
        with self._not_empty:
            self._paused = True

    def resume(self) -> None:
        with self._not_empty:
            self._paused = False
            self._not_empty.notify_all()

    def drain_remaining(self) -> List[Job]:
        """Close and empty the queue, returning the not-yet-started jobs
        in arrival order (the shutdown path answers them ``drained``)."""
        with self._not_empty:
            self._closed = True
            jobs = list(self._jobs)
            self._jobs.clear()
            self._not_empty.notify_all()
            return jobs
