"""Deterministic fault injection for the engine's recovery paths.

Set ``REPRO_FAULTS`` to a comma-separated ``kind:rate`` spec and the
engine's simulations and cache I/O are perturbed with those
probabilities::

    REPRO_FAULTS=crash:0.1,corrupt-cache:0.1 repro suite

Three fault kinds perturb the engine:

``crash``
    A simulation attempt raises :class:`InjectedFault` before it runs,
    and the engine's in-process retry rung must retry it.  Transient:
    the decision token includes the attempt number, so a retry
    re-rolls, and it never fires on the final attempt, so every point
    eventually runs clean.
``corrupt-cache``
    Bytes written to the persistent result store are truncated and
    garbled, exercising the checksum-verification read path.  Applied
    to the first write of each entry per process.
``fail``
    The point raises on *every* attempt — a permanent failure that
    forces the engine's degradation ladder (analytical estimate instead
    of a simulated point).

``repro serve`` runs the same engine, so the same three kinds exercise
the daemon.

Decisions are **deterministic**: each is a pure function of the seed
(``REPRO_FAULTS_SEED``, default 0), the fault kind, and a stable token
(the design point's cache-key digest plus, for ``crash``, the attempt
number).  Execution order — batch splits, retries of other points —
cannot change which points fault, so a faulty run is reproducible and
comparable point-by-point against a clean one.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
from typing import Dict, Mapping, Optional

#: Environment variables controlling the harness.
FAULTS_ENV = "REPRO_FAULTS"
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"

#: Recognized fault kinds (anything else in the spec is an error).
KINDS = ("crash", "corrupt-cache", "fail")

#: Per-process write counters for ``corrupt-cache`` decisions (see
#: :func:`corrupt_payload`).
_write_counts: Dict[str, int] = {}


class FaultSpecError(ValueError):
    """Malformed ``REPRO_FAULTS`` specification."""


class InjectedFault(RuntimeError):
    """An injected simulation fault (never raised by real code paths).

    The engine's retry rung recognizes this class to count it and
    record a ``fault`` mark.
    """

    def __init__(self, fault_kind: str, token: str, attempt: int):
        self.fault_kind = fault_kind
        self.token = token
        self.attempt = attempt
        super().__init__(
            f"injected {fault_kind} fault (token={token}, attempt={attempt})"
        )


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A parsed fault spec: per-kind rates plus the decision seed."""

    rates: Mapping[str, float]
    seed: int = 0

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse ``kind:rate,kind:rate`` into a plan.

        Raises :class:`FaultSpecError` on unknown kinds or rates
        outside ``[0, 1]`` — a fault harness that silently ignores a
        typo would "pass" every recovery test vacuously.
        """
        rates: Dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            kind, sep, raw = part.partition(":")
            kind = kind.strip()
            if not sep or kind not in KINDS:
                raise FaultSpecError(
                    f"unknown fault {part!r} (expected kind:rate with kind "
                    f"in {', '.join(KINDS)})"
                )
            try:
                rate = float(raw)
            except ValueError:
                raise FaultSpecError(f"non-numeric rate in {part!r}") from None
            if not 0.0 <= rate <= 1.0:
                raise FaultSpecError(f"rate out of [0, 1] in {part!r}")
            rates[kind] = rate
        return cls(rates=rates, seed=seed)

    @property
    def enabled(self) -> bool:
        return any(rate > 0 for rate in self.rates.values())

    def decide(self, kind: str, token: str) -> bool:
        """Deterministically decide whether ``kind`` fires for ``token``.

        A sha256 draw over ``(seed, kind, token)`` — independent of
        execution order, process, and platform hash randomization.
        """
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        digest = hashlib.sha256(
            f"{self.seed}|{kind}|{token}".encode("utf-8")
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return draw < rate


@functools.lru_cache(maxsize=8)
def _parse_cached(spec: str, seed: int) -> FaultPlan:
    return FaultPlan.parse(spec, seed=seed)


def active_plan() -> Optional[FaultPlan]:
    """The plan configured by the environment, or ``None``.

    Read afresh on every call (tests flip the environment between
    cases), with the parse itself memoized.
    """
    spec = os.environ.get(FAULTS_ENV, "").strip()
    if not spec:
        return None
    seed = int(os.environ.get(FAULTS_SEED_ENV, "0") or "0")
    plan = _parse_cached(spec, seed)
    return plan if plan.enabled else None


def perturb_task(token: str, attempt: int, final: bool) -> None:
    """Maybe perturb one simulation attempt (called before it runs).

    ``crash`` models a transient failure: its decision token carries
    the attempt number, so a retry re-rolls, and it never fires on the
    ``final`` attempt.  ``fail`` models a permanently failing design
    point: its token is attempt-free and it fires on every attempt.
    """
    plan = active_plan()
    if plan is None:
        return
    if not final and plan.decide("crash", f"{token}#a{attempt}"):
        raise InjectedFault("crash", token, attempt)
    if plan.decide("fail", token):
        raise InjectedFault("fail", token, attempt)


def corrupt_payload(token: str, payload: bytes) -> bytes:
    """Maybe corrupt a cache payload about to be persisted.

    The decision token includes a per-process write counter so a
    re-simulated entry's rewrite is an independent draw — otherwise a
    corrupted entry would be re-corrupted forever and the recovery
    path would never converge within a process.
    """
    plan = active_plan()
    if plan is None:
        return payload
    count = _write_counts.get(token, 0)
    _write_counts[token] = count + 1
    if not plan.decide("corrupt-cache", f"{token}#w{count}"):
        return payload
    # Truncate and garble: exercises both the checksum-mismatch and
    # short-read detection paths.
    return payload[: max(1, len(payload) // 2)] + b"\x00INJECTED"


__all__ = [
    "FAULTS_ENV",
    "FAULTS_SEED_ENV",
    "KINDS",
    "FaultPlan",
    "FaultSpecError",
    "InjectedFault",
    "active_plan",
    "corrupt_payload",
    "perturb_task",
]
