"""Typed diagnostics shared by every verification pass.

All verifiers (dataflow, allocation, pipeline) emit the same
:class:`Diagnostic` record: a **stable rule code** (``DF001``,
``AL004``, ``PL002``, ...), a severity, the kernel/block/instruction
location the finding anchors to, a human message, and a
machine-readable ``data`` payload.  The rule codes themselves live in
:mod:`repro.verify.registry` — one module owns the whole code space so
families cannot collide; this module re-exports
``Severity``/``Rule``/``RULES`` for compatibility.

A :class:`VerifyReport` aggregates diagnostics for one kernel/stage and
renders them for humans (one ``file:kernel:block:inst CODE severity:
message`` line each) or as JSON.  ``raise_if_errors`` converts a failed
report into the structured :class:`repro.errors.VerificationError`
(CLI exit code 6) so suite-level callers can isolate unverifiable apps
exactly like parse or allocation failures.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional

from .registry import RULES, Rule, Severity

__all__ = [
    "Diagnostic",
    "RULES",
    "Rule",
    "Severity",
    "VerifyReport",
]


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One verification finding, anchored to a kernel location.

    ``block`` is the CFG basic-block index and ``position`` the global
    instruction position (both ``None`` for kernel-level findings such
    as budget overflows).  ``data`` carries rule-specific machine
    fields (register names, offsets, byte counts) so tooling never has
    to parse the message.
    """

    rule: str
    message: str
    kernel: str
    severity: Severity = None  # type: ignore[assignment]
    block: Optional[int] = None
    position: Optional[int] = None
    instruction: Optional[str] = None
    stage: Optional[str] = None
    data: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown verification rule code {self.rule!r}")
        if self.severity is None:
            object.__setattr__(self, "severity", RULES[self.rule].severity)

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "kernel": self.kernel,
            "block": self.block,
            "position": self.position,
            "instruction": self.instruction,
            "stage": self.stage,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Diagnostic":
        """Rebuild a diagnostic from its :meth:`to_dict` form."""
        return cls(**{**data, "severity": Severity(data["severity"])})

    def render(self) -> str:
        """One human-readable line, clang-style."""
        where = [self.kernel]
        if self.block is not None:
            where.append(f"block {self.block}")
        if self.position is not None:
            where.append(f"inst {self.position}")
        line = f"{': '.join(where)}: {self.rule} " \
               f"{self.severity.value}: {self.message}"
        if self.instruction:
            line += f"\n    {self.instruction}"
        return line


@dataclasses.dataclass
class VerifyReport:
    """All findings of one verification run over one kernel."""

    kernel: str
    diagnostics: List[Diagnostic] = dataclasses.field(default_factory=list)
    stage: Optional[str] = None

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, other: "VerifyReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def codes(self) -> List[str]:
        return sorted({d.rule for d in self.diagnostics})

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kernel": self.kernel,
            "stage": self.stage,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "rules": self.codes(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VerifyReport":
        """Rebuild a report from its :meth:`to_dict` form (say, a
        daemon's ``verify`` reply), for :meth:`render` and
        :meth:`to_json`."""
        return cls(
            kernel=data["kernel"],
            stage=data["stage"],
            diagnostics=[Diagnostic.from_dict(d) for d in data["diagnostics"]],
        )

    def to_json(self, indent: int = 2) -> str:
        """The report as JSON, keys sorted at every level: the one order
        of ``repro verify --json`` whether the payload came from this
        process or over the wire, whose frames sort keys too."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Human rendering: every finding plus a one-line summary."""
        lines = [d.render() for d in self.diagnostics]
        lines.append(
            f"{self.kernel}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)

    def raise_if_errors(self) -> None:
        """Raise :class:`repro.errors.VerificationError` on any error."""
        if self.ok:
            return
        from ..errors import VerificationError

        raise VerificationError(
            f"{len(self.errors)} verification error(s): "
            + "; ".join(d.rule + " " + d.message for d in self.errors[:4])
            + ("; ..." if len(self.errors) > 4 else ""),
            kernel=self.kernel,
            stage=self.stage or "verify",
            diagnostics=list(self.diagnostics),
        )
