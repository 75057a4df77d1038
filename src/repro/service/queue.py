"""Service-side job bookkeeping: bounded priority queue + single-flight.

Two small, separately testable structures:

:class:`JobQueue`
    A bounded, thread-safe priority queue.  ``put`` never blocks — a
    full queue raises :class:`QueueFullError` immediately so the
    connection handler can send the 429-style ``overloaded`` reply with
    a ``retry_after`` hint instead of silently building an unbounded
    backlog (explicit backpressure beats implicit latency).  Ordering
    is by descending ``priority`` then FIFO within a priority.

:class:`InFlightJob` / :class:`SingleFlightTable`
    The deduplication layer.  Jobs are keyed by their content
    *signature* (kernel fingerprint + config signature + the param
    subset that changes the answer); concurrent identical requests
    attach to the one in-flight job and all wake on its completion,
    so a stampede of N identical submits costs exactly one evaluation.
"""

from __future__ import annotations

import dataclasses
import heapq
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from .protocol import Request


class QueueFullError(Exception):
    """The bounded queue rejected a job (backpressure signal)."""

    def __init__(self, depth: int, limit: int):
        self.depth = depth
        self.limit = limit
        super().__init__(f"queue full ({depth}/{limit})")


@dataclasses.dataclass
class Waiter:
    """One client request attached to an in-flight job."""

    req_id: Optional[str]
    #: Absolute monotonic deadline (``None`` = wait forever).
    deadline_at: Optional[float]


class InFlightJob:
    """One deduplicated unit of work and everyone waiting on it.

    The first request for a signature creates the job; later identical
    requests only append a :class:`Waiter`.  ``finish`` publishes the
    outcome exactly once and wakes every waiter.  Outcomes are
    ``("ok", result)``, ``("error", (kind, message, exit_code))``,
    ``("expired", None)`` or ``("drained", None)``.
    """

    def __init__(self, signature: str, request: Request):
        self.signature = signature
        #: The canonical request (the first one); its params define the
        #: work, its priority is raised to the max of all attachments.
        self.request = request
        #: ``time.perf_counter()`` when a worker took the job up.
        self.started_at: Optional[float] = None
        self.waiters: List[Waiter] = []
        self.outcome: Optional[Tuple[str, Any]] = None
        #: Set by the server after admission: the resolved
        #: :class:`~repro.service.jobs.PreparedJob` the worker executes
        #: (and takes off the job when it starts).
        self.prepared: Optional[object] = None
        self._done = threading.Event()

    def attach(self, req_id: Optional[str], deadline: Optional[float]) -> Waiter:
        waiter = Waiter(
            req_id=req_id,
            deadline_at=(time.monotonic() + deadline) if deadline else None,
        )
        self.waiters.append(waiter)
        return waiter

    def all_expired(self, now: Optional[float] = None) -> bool:
        """True when every waiter's deadline has already passed (the
        worker skips execution: nobody is left to hear the answer)."""
        now = time.monotonic() if now is None else now
        return bool(self.waiters) and all(
            w.deadline_at is not None and w.deadline_at <= now
            for w in self.waiters
        )

    def finish(self, status: str, payload: Any = None) -> None:
        self.outcome = (status, payload)
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    @property
    def done(self) -> bool:
        return self._done.is_set()


class SingleFlightTable:
    """Signature -> in-flight job map behind one lock.

    ``admit`` is the only entry point: it either attaches the request
    to an existing live job (a dedup hit — the caller must *not*
    enqueue anything) or registers a fresh job the caller is now
    responsible for queueing.  Jobs deregister on completion, so a
    signature can run again later (with a by-then-warm cache).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[str, InFlightJob] = {}

    def admit(
        self,
        signature: str,
        request: Request,
    ) -> Tuple[InFlightJob, Waiter, bool]:
        """Returns ``(job, waiter, created)``; ``created=False`` is a
        dedup hit."""
        with self._lock:
            job = self._jobs.get(signature)
            if job is not None and not job.done:
                waiter = job.attach(request.id, request.deadline)
                return job, waiter, False
            job = InFlightJob(signature, request)
            waiter = job.attach(request.id, request.deadline)
            self._jobs[signature] = job
            return job, waiter, True

    def complete(self, job: InFlightJob, status: str, payload: Any = None) -> None:
        """Publish the outcome and deregister the signature."""
        with self._lock:
            if self._jobs.get(job.signature) is job:
                del self._jobs[job.signature]
        job.finish(status, payload)

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)


class JobQueue:
    """Bounded priority queue of :class:`InFlightJob`.

    ``get`` blocks until a job, ``close()``, or timeout; a closed,
    empty queue yields ``None`` (the worker's exit signal).
    ``drain_remaining`` atomically empties the queue for checkpointing
    during graceful shutdown.
    """

    def __init__(self, limit: int):
        if limit <= 0:
            raise ValueError("queue limit must be positive")
        self.limit = limit
        self._heap: List[Tuple[int, int, InFlightJob]] = []
        self._seq = 0
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._paused = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, job: InFlightJob) -> None:
        with self._not_empty:
            if self._closed:
                raise QueueFullError(len(self._heap), self.limit)
            if len(self._heap) >= self.limit:
                raise QueueFullError(len(self._heap), self.limit)
            heapq.heappush(
                self._heap, (-job.request.priority, self._seq, job)
            )
            self._seq += 1
            self._not_empty.notify()

    def get(self, timeout: Optional[float] = None) -> Optional[InFlightJob]:
        deadline = time.monotonic() + timeout if timeout is not None else None
        with self._not_empty:
            while self._paused or not self._heap:
                if self._closed and not self._heap:
                    return None
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._not_empty.wait(remaining)
            return heapq.heappop(self._heap)[2]

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

    def close(self) -> None:
        """Stop accepting and wake every blocked ``get``."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    def drain_remaining(self) -> List[InFlightJob]:
        """Close and empty the queue, returning not-yet-started jobs in
        priority order (the shutdown path checkpoints them)."""
        with self._not_empty:
            self._closed = True
            jobs = [entry[2] for entry in sorted(self._heap)]
            self._heap.clear()
            self._not_empty.notify_all()
            return jobs
