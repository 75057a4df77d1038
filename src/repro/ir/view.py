"""Instruction views for the rewrite driver.

Patterns match against an :class:`InstrWindow` — one instruction
position inside a :class:`RewriteContext` that exposes one kernel
revision, its CFG, liveness, loops, and a generic analysis memo.
Kernels are immutable, so every analysis is computed lazily, at most
once, and stays valid for the lifetime of the context.  An applied
rewrite makes a new kernel and the driver gives it a new context, so a
pattern can trust that whatever it reads describes the *current*
kernel.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..cfg.graph import CFG, BasicBlock
from ..cfg.liveness import LivenessInfo
from ..cfg.loops import Loop, find_loops
from ..ptx.instruction import Instruction
from ..ptx.module import Kernel


class RewriteContext:
    """Read-only analysis view of one kernel revision.

    One context serves its revision for as long as the revision is
    current: every sweep that starts on it, the next pipeline stage,
    and :func:`repro.verify.verify_pass` on both sides of the rewrites
    it borders.  Every cached analysis (CFG, liveness, loops, and
    memos via :meth:`cached`) describes :attr:`kernel`, which cannot
    change.  Patterns must treat everything reachable from here as
    immutable — a new revision comes only from
    :class:`repro.ir.rewrite.Rewriter`.
    """

    def __init__(self, kernel: Kernel):
        self._kernel = kernel
        self._cfg: Optional[CFG] = None
        self._liveness: Optional[LivenessInfo] = None
        self._loops: Optional[List[Loop]] = None
        self._block_of_pos: Optional[Dict[int, BasicBlock]] = None
        self._memo: Dict[Any, Any] = {}

    @property
    def kernel(self) -> Kernel:
        return self._kernel

    @classmethod
    def of(cls, target: Union[Kernel, "RewriteContext"]) -> "RewriteContext":
        """``target`` itself when it is a context, else a fresh context
        of the kernel ``target``."""
        return target if isinstance(target, RewriteContext) else cls(target)

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        """All instructions in body order (labels skipped)."""
        return self._kernel.instructions()

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = CFG(self._kernel)
        return self._cfg

    @property
    def liveness(self) -> LivenessInfo:
        if self._liveness is None:
            self._liveness = LivenessInfo(self._kernel, self.cfg)
        return self._liveness

    @property
    def loops(self) -> List[Loop]:
        if self._loops is None:
            self._loops = find_loops(self.cfg)
        return self._loops

    def block_of(self, pos: int) -> BasicBlock:
        """The basic block containing global instruction position ``pos``."""
        if self._block_of_pos is None:
            mapping: Dict[int, BasicBlock] = {}
            for block in self.cfg.blocks:
                for p, _ in block.positions():
                    mapping[p] = block
            self._block_of_pos = mapping
        return self._block_of_pos[pos]

    def cached(self, key: Any, compute: Callable[["RewriteContext"], Any]) -> Any:
        """Memoize an analysis of this kernel revision.

        ``key`` should be unique per analysis (conventionally the
        pattern name, or the compute function itself); ``compute``
        receives the context and its result is cached for the life of
        the context.
        """
        if key not in self._memo:
            self._memo[key] = compute(self)
        return self._memo[key]


@dataclasses.dataclass(frozen=True)
class InstrWindow:
    """One anchor position a pattern is asked to match at."""

    ctx: RewriteContext
    pos: int

    @property
    def instr(self) -> Instruction:
        return self.ctx.instructions[self.pos]

    @property
    def block(self) -> BasicBlock:
        return self.ctx.block_of(self.pos)

    @property
    def is_block_leader(self) -> bool:
        """Whether this is the first instruction of its basic block."""
        return self.block.start == self.pos
