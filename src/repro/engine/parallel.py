"""Supervised process-pool fan-out for independent simulation points.

Design-space sweeps (TLP profiling, candidate evaluation) simulate many
independent points over the same traces — embarrassingly parallel work.
:func:`run_supervised` executes a batch under a **supervisor** instead
of a bare ``pool.map``:

* tasks are submitted individually, so one crashed or hung worker
  fails only its own task, not the whole batch;
* each task gets a per-attempt wall-clock timeout
  (``REPRO_TASK_TIMEOUT`` / ``--task-timeout``; pool mode only — an
  in-process task cannot be interrupted portably);
* crashed and timed-out tasks are retried with backoff, up to
  ``REPRO_TASK_RETRIES`` extra attempts; the **final attempt always
  runs serially in-process**, so a poisoned pool can never lose work
  the interpreter itself could do;
* a ``BrokenProcessPool`` fails only the tasks that were in flight —
  finished results are kept, the pool is rebuilt for the retry round;
* deterministic Python exceptions (e.g. a divergence trap in the
  functional simulator) are *not* retried: re-running a deterministic
  failure is wasted work, the error is reported immediately.

Everything observable — injected faults, retries, timeouts — is
reported through the ``emit`` hook as typed events
(:class:`~repro.engine.events.FaultEvent` /
:class:`~repro.engine.events.RetryEvent`), which the engine routes into
its ``--trace-json`` channel.

:func:`run_simulations` keeps the historical strict interface (results
in input order, first failure raised); the engine uses
:func:`run_supervised` directly to degrade failed points gracefully.

The worker count comes from the ``REPRO_JOBS`` environment variable or
the CLI's ``--jobs`` flag.  If a pool cannot be created (restricted
sandboxes) the batch falls back to the serial path.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..arch.config import GPUConfig
from ..errors import TaskTimeoutError
from ..sim.executor import BlockTrace
from ..sim.stats import SimResult
from . import faults
from .events import EngineEvent, FaultEvent, RetryEvent

#: Environment variable setting the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Environment variables configuring the supervisor.
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"
TASK_RETRIES_ENV = "REPRO_TASK_RETRIES"

SimTask = Tuple[List[BlockTrace], GPUConfig, int, str]

EmitFn = Callable[[EngineEvent], None]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve an explicit ``jobs`` request against ``REPRO_JOBS``.

    ``None`` means "use the environment default"; anything below 1 is
    clamped to the serial path.  An unparseable ``REPRO_JOBS`` falls
    back to serial *loudly*: misconfigured parallelism that silently
    runs serial looks like a performance bug and hides forever.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "")
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                print(
                    f"repro: warning: ignoring invalid {JOBS_ENV}={raw!r} "
                    "(expected an integer); running simulations serially",
                    file=sys.stderr,
                )
                jobs = 1
        else:
            jobs = 1
    return max(1, jobs)


@dataclasses.dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/timeout budget for one supervised batch.

    ``timeout`` is the per-task wall-clock budget in seconds (``None``:
    unlimited; only enforceable in pool mode).  ``max_attempts`` counts
    every attempt including the first and the final in-process one, so
    the default of 3 means: pool try, pool retry, serial last resort.
    ``backoff`` seconds are slept between rounds, scaled by the round
    number — enough to let transient resource pressure clear without
    stalling tests.
    """

    timeout: Optional[float] = None
    max_attempts: int = 3
    backoff: float = 0.05

    @classmethod
    def from_env(cls) -> "SupervisorPolicy":
        timeout: Optional[float] = None
        raw = os.environ.get(TASK_TIMEOUT_ENV, "")
        if raw:
            try:
                timeout = float(raw)
            except ValueError:
                print(
                    f"repro: warning: ignoring invalid {TASK_TIMEOUT_ENV}="
                    f"{raw!r} (expected seconds)",
                    file=sys.stderr,
                )
        if timeout is not None and timeout <= 0:
            timeout = None
        attempts = 3
        raw = os.environ.get(TASK_RETRIES_ENV, "")
        if raw:
            try:
                attempts = max(1, int(raw) + 1)
            except ValueError:
                print(
                    f"repro: warning: ignoring invalid {TASK_RETRIES_ENV}="
                    f"{raw!r} (expected an integer)",
                    file=sys.stderr,
                )
        return cls(timeout=timeout, max_attempts=attempts)


@dataclasses.dataclass
class TaskOutcome:
    """Terminal state of one supervised task."""

    result: Optional[SimResult] = None
    error: Optional[BaseException] = None
    attempts: int = 0
    timed_out: bool = False
    retried: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None


def _simulate_task(task: SimTask) -> SimResult:
    """One design point: a batch of one of the timing core."""
    traces, config, tlp, scheduler = task
    from ..sim.gpu import simulate_traces

    return simulate_traces(traces, config, tlp, scheduler=scheduler)


def _supervised_task(payload: Tuple[SimTask, str, int]) -> SimResult:
    """Pool-worker entry: fault injection point, then the simulation."""
    task, token, attempt = payload
    faults.perturb_task(token, attempt, in_pool=True)
    return _simulate_task(task)


def _retryable(error: BaseException) -> bool:
    """Whether a failed attempt is worth retrying.

    Infrastructure failures (timeouts, broken pools, injected transient
    faults, OS-level errors) are transient; deterministic Python
    exceptions out of the simulator are not — the same inputs will fail
    the same way, and the ``fail`` injection kind models exactly that.
    """
    if isinstance(error, faults.InjectedFault):
        return error.fault_kind != "fail"
    if isinstance(error, TaskTimeoutError):
        return True
    try:
        from concurrent.futures.process import BrokenProcessPool

        if isinstance(error, BrokenProcessPool):
            return True
    except ImportError:  # pragma: no cover
        pass
    return isinstance(error, OSError)


def _fail_reason(error: BaseException, timed_out: bool) -> str:
    if timed_out:
        return "timeout"
    if isinstance(error, faults.InjectedFault):
        return error.fault_kind
    try:
        from concurrent.futures.process import BrokenProcessPool

        if isinstance(error, BrokenProcessPool):
            return "pool-broken"
    except ImportError:  # pragma: no cover
        pass
    return "crash"


def _record_fault(error: BaseException, emit: Optional[EmitFn]) -> None:
    if emit and isinstance(error, faults.InjectedFault):
        emit(
            FaultEvent(
                fault=error.fault_kind,
                token=error.token,
                attempt=error.attempt,
            )
        )


def _pool_round(
    tasks: Sequence[SimTask],
    pending: List[int],
    tokens: Sequence[str],
    outcomes: List[TaskOutcome],
    jobs: int,
    attempt: int,
    timeout: Optional[float],
) -> Tuple[List[int], bool]:
    """One pool attempt over ``pending``; returns (still_failed, pool_ok).

    ``pool_ok=False`` means the pool could not even be created (no
    fork in this sandbox) and the caller should go serial for good.
    """
    from concurrent.futures import TimeoutError as FuturesTimeout
    from concurrent.futures.process import BrokenProcessPool

    try:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
    except (OSError, ImportError, PermissionError):
        return list(pending), False

    futures = {}
    try:
        for i in pending:
            futures[i] = pool.submit(
                _supervised_task, (tasks[i], tokens[i], attempt)
            )
    except BrokenProcessPool:
        # The pool died during submission; everything retries.
        pool.shutdown(wait=False)
        for i in pending:
            out = outcomes[i]
            out.attempts = attempt
            out.error = BrokenProcessPool("pool broke during submission")
        return list(pending), True

    failed: List[int] = []
    abandoned = False
    for i in pending:
        out = outcomes[i]
        out.attempts = attempt
        out.timed_out = False
        try:
            out.result = futures[i].result(timeout=timeout)
            out.error = None
        except FuturesTimeout:
            futures[i].cancel()
            out.error = TaskTimeoutError(
                f"simulation task exceeded {timeout:.3g}s wall clock"
            )
            out.timed_out = True
            failed.append(i)
            abandoned = True  # a hung worker may still hold the slot
        except BrokenProcessPool as err:
            out.error = err
            failed.append(i)
        except BaseException as err:  # worker exception (incl. injected)
            out.error = err
            failed.append(i)
    # A timed-out worker cannot be interrupted; waiting on shutdown
    # would serialize behind the hang.  Abandon the pool (its processes
    # exit once their current task finishes) and let the retry round
    # build a fresh one.
    pool.shutdown(wait=not abandoned, cancel_futures=abandoned)
    return failed, True


def run_supervised(
    tasks: Sequence[SimTask],
    jobs: int = 1,
    policy: Optional[SupervisorPolicy] = None,
    tokens: Optional[Sequence[str]] = None,
    emit: Optional[EmitFn] = None,
) -> List[TaskOutcome]:
    """Run a batch under supervision; one terminal outcome per task.

    Never raises for task failures — each :class:`TaskOutcome` carries
    either a result or the last attempt's error, and the caller decides
    whether to degrade, report, or raise.
    """
    policy = policy or SupervisorPolicy.from_env()
    if tokens is None:
        tokens = [f"task{i}" for i in range(len(tasks))]
    outcomes = [TaskOutcome() for _ in tasks]
    pending = list(range(len(tasks)))
    pool_ok = jobs > 1
    attempt = 0
    while pending and attempt < policy.max_attempts:
        attempt += 1
        last = attempt >= policy.max_attempts
        if pool_ok and not last:
            failed, pool_ok = _pool_round(
                tasks, pending, tokens, outcomes, jobs, attempt,
                policy.timeout,
            )
            if not pool_ok:
                # No pool in this environment: the round ran nothing.
                # Fall through to a serial attempt without burning the
                # retry budget on infrastructure that can never work.
                attempt -= 1
                continue
        else:
            failed = []
            for i in pending:
                out = outcomes[i]
                out.attempts = attempt
                try:
                    faults.perturb_task(tokens[i], attempt, in_pool=False)
                    out.result = _simulate_task(tasks[i])
                    out.error = None
                except BaseException as err:
                    out.error = err
                    failed.append(i)

        retry = []
        for i in failed:
            out = outcomes[i]
            assert out.error is not None
            _record_fault(out.error, emit)
            will_retry = not last and _retryable(out.error)
            if emit:
                emit(
                    RetryEvent(
                        token=tokens[i],
                        attempt=attempt,
                        reason=_fail_reason(out.error, out.timed_out),
                        final=not will_retry,
                        error=type(out.error).__name__,
                    )
                )
            if will_retry:
                out.retried = True
                retry.append(i)
        pending = retry
        if pending and policy.backoff > 0:
            time.sleep(policy.backoff * attempt)
    return outcomes


def run_simulations(
    tasks: Sequence[SimTask],
    jobs: int = 1,
    policy: Optional[SupervisorPolicy] = None,
    tokens: Optional[Sequence[str]] = None,
    emit: Optional[EmitFn] = None,
) -> List[SimResult]:
    """Run a batch of simulation tasks, results in input order.

    The strict interface: the first task that still fails after the
    supervisor's retry budget raises its error.  Callers that can
    degrade per-point use :func:`run_supervised` directly.
    """
    outcomes = run_supervised(
        tasks, jobs=jobs, policy=policy, tokens=tokens, emit=emit
    )
    results: List[SimResult] = []
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
        assert outcome.result is not None
        results.append(outcome.result)
    return results
