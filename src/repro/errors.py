"""Structured error taxonomy for the whole pipeline.

Historically each layer raised its own ad-hoc exception —
:class:`~repro.ptx.parser.PTXParseError`,
:class:`~repro.regalloc.allocator.InsufficientRegistersError`,
:class:`~repro.sim.executor.DivergentBranchError` — and whatever
reached the CLI surfaced as a raw traceback.  Failure reports need one
vocabulary and the CLI needs stable exit codes, so every failure is
routed into this tree at the engine boundary (:func:`classify_error`):

``ReproError``
    ├── ``ParseError``       — PTX that does not parse or breaks a DF
    │                          rule at load (codes named)          (exit 2)
    ├── ``AllocationError``  — no feasible register allocation    (exit 3)
    ├── ``SimulationError``  — trace generation or timing failure (exit 4)
    ├── ``VerificationError`` — translation validation failed     (exit 6)
    └── ``ServiceError``     — compilation-service transport or
        protocol failure (daemon unreachable, malformed frame,
        request rejected)                                          (exit 7)

Every node carries the *context* of the failure — the app / kernel and
the ``(reg, TLP)`` design point being evaluated when it happened — so a
suite-level failure report can say *what* was lost, not just that
something raised.  Exit code 5 (partial suite failure) is not an
exception class: the suite runner returns it when some apps succeeded
and some did not.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: CLI exit codes (documented in README "Troubleshooting").
EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ALLOCATION = 3
EXIT_SIMULATION = 4
EXIT_PARTIAL = 5
EXIT_VERIFY = 6
EXIT_SERVICE = 7


class ReproError(Exception):
    """Root of the structured error taxonomy.

    ``app`` names the workload (or file) being evaluated, ``kernel``
    the kernel, and ``design_point`` the ``(reg, TLP)`` coordinate —
    ``reg`` may be ``None`` when the failure is TLP-only (a profiling
    sweep point).  ``stage`` names the pipeline stage that failed.
    """

    exit_code = 1

    def __init__(
        self,
        message: str,
        app: Optional[str] = None,
        kernel: Optional[str] = None,
        design_point: Optional[Tuple[Optional[int], Optional[int]]] = None,
        stage: Optional[str] = None,
    ):
        self.app = app
        self.kernel = kernel
        self.design_point = design_point
        self.stage = stage
        super().__init__(self._decorate(message))

    def _decorate(self, message: str) -> str:
        where = []
        if self.app:
            where.append(f"app={self.app}")
        if self.kernel and self.kernel != self.app:
            where.append(f"kernel={self.kernel}")
        if self.design_point is not None:
            reg, tlp = self.design_point
            point = []
            if reg is not None:
                point.append(f"reg={reg}")
            if tlp is not None:
                point.append(f"tlp={tlp}")
            where.extend(point)
        if self.stage:
            where.append(f"stage={self.stage}")
        if where:
            return f"{message} [{', '.join(where)}]"
        return message

    @property
    def kind(self) -> str:
        """Machine-readable taxonomy label (used in failure reports)."""
        return type(self).__name__

    def to_dict(self) -> dict:
        """JSON-ready rendering for ``--report-json`` failure reports."""
        return {
            "kind": self.kind,
            "message": str(self),
            "app": self.app,
            "kernel": self.kernel,
            "design_point": list(self.design_point)
            if self.design_point is not None
            else None,
            "stage": self.stage,
            "exit_code": self.exit_code,
        }


class ParseError(ReproError):
    """PTX text could not be parsed, or it breaks a DF rule at load
    (:func:`repro.verify.verify_kernel`)."""

    exit_code = EXIT_PARSE


class AllocationError(ReproError):
    """No feasible register allocation for the requested limit."""

    exit_code = EXIT_ALLOCATION


class SimulationError(ReproError):
    """Trace generation or timing simulation failed."""

    exit_code = EXIT_SIMULATION


class VerificationError(ReproError):
    """Translation validation found a miscompile (``repro verify``,
    ``--verify``).

    Carries the full list of typed
    :class:`~repro.verify.diagnostics.Diagnostic` findings so suite
    failure reports preserve the rule codes, not just a message.
    """

    exit_code = EXIT_VERIFY

    def __init__(self, message: str, diagnostics=None, **context):
        self.diagnostics = list(diagnostics or [])
        super().__init__(message, **context)

    def to_dict(self) -> dict:
        data = super().to_dict()
        data["diagnostics"] = [d.to_dict() for d in self.diagnostics]
        data["rules"] = sorted({d.rule for d in self.diagnostics})
        return data


class ServiceError(ReproError):
    """The compilation service misbehaved at the transport or protocol
    layer: the daemon is unreachable, a frame failed validation, the
    queue rejected the request past the client's retry budget, or the
    connection died mid-reply.

    Job-level failures are *not* ``ServiceError``s: a ``crat`` job that
    hits an infeasible allocation travels back to the client as its
    original taxonomy kind and exit code, exactly as the one-shot CLI
    would have reported it.
    """

    exit_code = EXIT_SERVICE

    def __init__(self, message: str, retry_after: Optional[float] = None,
                 **context):
        self.retry_after = retry_after
        super().__init__(message, **context)


def classify_error(
    exc: BaseException,
    app: Optional[str] = None,
    kernel: Optional[str] = None,
    design_point: Optional[Tuple[Optional[int], Optional[int]]] = None,
    stage: Optional[str] = None,
) -> ReproError:
    """Route an arbitrary exception into the taxonomy with context.

    Already-classified errors pass through unchanged (context is *not*
    overwritten — the innermost frame knows best).  The legacy ad-hoc
    exceptions map onto their natural branches; anything unrecognized
    becomes a generic :class:`SimulationError`, which is the only thing
    that can go wrong past the compile stages.

    The mapping imports lazily so this module stays import-cycle-free
    (``repro.errors`` must be importable from every layer).
    """
    if isinstance(exc, ReproError):
        return exc

    from .ptx.parser import PTXParseError
    from .regalloc.allocator import InsufficientRegistersError
    from .service.protocol import ProtocolError

    context = dict(
        app=app, kernel=kernel, design_point=design_point, stage=stage
    )
    if isinstance(exc, ProtocolError):
        # Wire-level damage (truncated frame, oversized or malformed
        # JSON) is a transport failure: exit 7, never a JSON traceback.
        err = ServiceError(f"protocol violation: {exc}", **context)
        err.__cause__ = exc
        return err
    if isinstance(exc, PTXParseError):
        cls = ParseError
    elif isinstance(exc, InsufficientRegistersError):
        cls = AllocationError
    else:
        cls = SimulationError
    err = cls(f"{type(exc).__name__}: {exc}", **context)
    err.__cause__ = exc
    return err


__all__ = [
    "EXIT_ALLOCATION",
    "EXIT_OK",
    "EXIT_PARSE",
    "EXIT_PARTIAL",
    "EXIT_SERVICE",
    "EXIT_SIMULATION",
    "EXIT_VERIFY",
    "AllocationError",
    "ParseError",
    "ReproError",
    "ServiceError",
    "SimulationError",
    "VerificationError",
    "classify_error",
]
