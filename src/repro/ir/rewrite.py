"""Rewrite descriptions and the audited mutation API.

A :class:`RewritePattern` matches at an instruction window and returns
a :class:`Rewrite` — a declarative set of body *splices* (replace /
erase / insert) anchored at the match position.  The only way a rewrite
reaches a kernel is :meth:`Rewriter.apply`, which audits the splice set
(in range, non-overlapping, never crossing a label) and produces a new
kernel, leaving the input untouched.  Patterns therefore cannot corrupt
a kernel silently: every malformed edit fails loudly as a
:class:`RewriteError` at application time, and every applied edit is a
single well-defined delta the driver can hand to the translation
validator.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..ptx.instruction import Instruction, Label
from ..ptx.module import Kernel
from .view import InstrWindow, RewriteContext


class RewriteError(RuntimeError):
    """A pattern produced a malformed rewrite (audit failure)."""


@dataclasses.dataclass(frozen=True)
class Splice:
    """Replace ``length`` instructions starting at global position
    ``start`` with ``replacement`` (``length == 0`` inserts)."""

    start: int
    length: int
    replacement: Tuple[Instruction, ...]


class Rewrite:
    """A declarative edit produced by one pattern match.

    ``anchor`` is the global instruction position the pattern matched
    at (provenance); ``note`` is a human-readable description; and
    ``metadata`` carries pattern-specific counters (e.g. how many uses
    copy propagation rewrote) that the driver accumulates.
    """

    def __init__(self, anchor: int, note: str = ""):
        self.anchor = anchor
        self.note = note
        self.metadata: Dict[str, Any] = {}
        self._splices: List[Splice] = []

    # ------------------------------------------------------------------
    # Edit builders.
    # ------------------------------------------------------------------
    def replace(self, pos: int, *instructions: Instruction) -> "Rewrite":
        """Replace the instruction at ``pos`` with ``instructions``."""
        return self.splice(pos, 1, instructions)

    def erase(self, pos: int) -> "Rewrite":
        """Erase the instruction at ``pos``."""
        return self.splice(pos, 1, ())

    def insert_before(self, pos: int, *instructions: Instruction) -> "Rewrite":
        """Insert ``instructions`` immediately before ``pos``."""
        return self.splice(pos, 0, instructions)

    def splice(
        self, start: int, length: int, replacement: Sequence[Instruction]
    ) -> "Rewrite":
        """Replace ``length`` instructions at ``start`` with ``replacement``."""
        if start < 0 or length < 0:
            raise RewriteError(
                f"splice bounds must be non-negative: start={start} length={length}"
            )
        for item in replacement:
            if not isinstance(item, Instruction):
                raise RewriteError(
                    f"splice replacement must be instructions, got {type(item).__name__}"
                )
        self._splices.append(Splice(start, length, tuple(replacement)))
        return self

    @property
    def splices(self) -> List[Splice]:
        return sorted(self._splices, key=lambda s: s.start)


class RewritePattern:
    """Base class for declarative rewrite patterns.

    Subclasses set :attr:`name` (the registry / provenance / verifier
    stage name) and :attr:`verify_mode` (``"exact"`` for effect-summary
    preservation, ``"structure"`` for passes that legitimately change
    the static event sequence — see ``repro.verify.pipeline``), and
    implement :meth:`match`.
    """

    name: str = "pattern"
    verify_mode: str = "exact"

    def match(
        self, window: InstrWindow, ctx: RewriteContext
    ) -> Optional[Rewrite]:
        """Return a :class:`Rewrite` anchored at ``window.pos``, or
        ``None`` if the pattern does not apply there."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class Rewriter:
    """Applies one :class:`Rewrite` to a kernel through a single audited
    path; the input kernel is never mutated."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel

    def apply(self, rewrite: Rewrite) -> Kernel:
        """Validate ``rewrite`` against the kernel and return the edited
        kernel.  Raises :class:`RewriteError` on any audit failure."""
        splices = rewrite.splices
        if not splices:
            raise RewriteError(
                f"empty rewrite at anchor {rewrite.anchor}: a matched "
                "pattern must describe at least one edit"
            )
        n = sum(1 for item in self.kernel.body if isinstance(item, Instruction))
        previous_end = -1
        previous_start = -1
        for sp in splices:
            if sp.start + sp.length > n or sp.start > n:
                raise RewriteError(
                    f"splice [{sp.start}, {sp.start + sp.length}) out of "
                    f"range for kernel with {n} instructions"
                )
            if sp.start == previous_start or sp.start < previous_end:
                raise RewriteError(
                    f"overlapping splices at position {sp.start}"
                )
            previous_start = sp.start
            previous_end = sp.start + sp.length

        by_start = {sp.start: sp for sp in splices}
        new_body: List[Any] = []
        position = 0
        skip_until = -1
        for item in self.kernel.body:
            if isinstance(item, Label):
                if position < skip_until:
                    raise RewriteError(
                        f"splice ending at {skip_until} crosses label "
                        f"{item.name!r} at position {position}"
                    )
                new_body.append(item)
                continue
            if position < skip_until:
                position += 1
                continue
            sp = by_start.get(position)
            if sp is not None:
                new_body.extend(sp.replacement)
                if sp.length == 0:
                    new_body.append(item)
                    position += 1
                else:
                    skip_until = position + sp.length
                    position += 1
                continue
            new_body.append(item)
            position += 1
        # Pure insertions at the end of the body (start == n).
        sp = by_start.get(position)
        if sp is not None:
            new_body.extend(sp.replacement)

        return dataclasses.replace(self.kernel, body=new_body)
