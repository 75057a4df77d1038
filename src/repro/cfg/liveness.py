"""Live-variable analysis over the PTX-subset IR.

The paper's allocator "analyzes the live range of each variable and
constructs the interference graph" (Section 5.1).  This module computes,
for every instruction position, the set of registers live *out* of that
position, plus summarized per-register live intervals and use counts
(used as spill weights, and as the "access frequency" signal behind the
var1/var2 example of paper Figure 8).

Registers are tracked by *name*: PTX register names are unique per
kernel, while the parser may attach slightly different integer dtypes to
the same register at different sites (s32 vs u32), which must not split
a live range.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..ptx.instruction import Instruction, Reg
from ..ptx.isa import DType, Opcode
from ..ptx.module import Kernel
from .dataflow import BackwardMaySolver
from .graph import CFG


@dataclasses.dataclass
class LiveRange:
    """Summary of one register's lifetime.

    ``start``/``end`` are global instruction positions (inclusive of the
    defining position, exclusive semantics are handled by interference
    construction).  ``uses`` counts read sites; ``defs`` counts write
    sites; ``weight`` is the loop-depth-weighted access count used to
    order spill candidates (deep-loop variables are expensive to spill).
    """

    name: str
    dtype: DType
    start: int
    end: int
    uses: int = 0
    defs: int = 0
    weight: float = 0.0

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    @property
    def accesses(self) -> int:
        return self.uses + self.defs


class LivenessInfo:
    """Result of liveness analysis for one kernel.

    ``live_in``, ``live_out``, ``instructions`` and ``dtype_of`` are
    computed up front.  ``ranges`` is summarized on its first read: the
    allocators, ``register_demand`` and the Algorithm 1 gain scan read
    it, while the allocation checker and the pass pipeline read only
    ``live_out`` and ``dtype_of``.
    """

    def __init__(self, kernel: Kernel, cfg: Optional[CFG] = None):
        self.kernel = kernel
        self.cfg = cfg if cfg is not None else CFG(kernel)
        #: live-out register-name set per global instruction position
        self.live_out: List[FrozenSet[str]] = []
        #: live-in register-name set per global instruction position
        self.live_in: List[FrozenSet[str]] = []
        #: per-position instruction, aligned with live_in/live_out
        self.instructions: List[Instruction] = []
        #: name -> representative dtype: its first occurrence in position
        #: order, an instruction's defs before its uses
        self.dtype_of: Dict[str, DType] = {}
        # Per-position def and use names (a name read twice appears
        # twice), shared by the block summaries, the backward walk and
        # the range summary.
        self._defs: List[Tuple[str, ...]] = []
        self._uses: List[Tuple[str, ...]] = []
        self._ranges: Optional[Dict[str, LiveRange]] = None
        self._analyze()

    @property
    def ranges(self) -> Dict[str, LiveRange]:
        """name -> :class:`LiveRange`, summarized on first read."""
        if self._ranges is None:
            self._ranges = self._summarize_ranges()
        return self._ranges

    # ------------------------------------------------------------------
    def _analyze(self) -> None:
        cfg = self.cfg
        n = cfg.instruction_count()
        empty: FrozenSet[str] = frozenset()
        self.live_out = live_out = [empty] * n
        self.live_in = live_in = [empty] * n
        self.instructions = [None] * n  # type: ignore[list-item]
        self._defs = defs_at = [()] * n  # type: ignore[assignment]
        self._uses = uses_at = [()] * n  # type: ignore[assignment]
        dtype_of = self.dtype_of

        # Per-position def/use names and per-block use/def summaries.
        use_sets: Dict[int, FrozenSet[str]] = {}
        def_sets: Dict[int, FrozenSet[str]] = {}
        for block in cfg.blocks:
            uses: Set[str] = set()
            defs: Set[str] = set()
            for pos, inst in block.positions():
                self.instructions[pos] = inst
                def_regs = inst.defs()
                use_regs = inst.uses()
                for reg in def_regs:
                    dtype_of.setdefault(reg.name, reg.dtype)
                for reg in use_regs:
                    dtype_of.setdefault(reg.name, reg.dtype)
                def_names = tuple(reg.name for reg in def_regs)
                use_names = tuple(reg.name for reg in use_regs)
                defs_at[pos] = def_names
                uses_at[pos] = use_names
                uses.update(name for name in use_names if name not in defs)
                defs.update(def_names)
            use_sets[block.index] = frozenset(uses)
            def_sets[block.index] = frozenset(defs)

        def transfer(idx: int, out_set: FrozenSet[str]) -> FrozenSet[str]:
            return use_sets[idx] | (out_set - def_sets[idx])

        solver: BackwardMaySolver[str] = BackwardMaySolver(cfg, transfer)
        solver.solve()

        # Expand to per-instruction sets by walking blocks backwards.
        # Within a block a position's live-out is its successor's
        # live-in, so the two lists share one frozenset per boundary.
        for block in cfg.blocks:
            current = solver.out_sets[block.index]
            live: Set[str] = set(current)
            for pos in range(block.start + len(block) - 1, block.start - 1, -1):
                live_out[pos] = current
                live.difference_update(defs_at[pos])
                live.update(uses_at[pos])
                current = frozenset(live)
                live_in[pos] = current

    def _summarize_ranges(self) -> Dict[str, LiveRange]:
        """One :class:`LiveRange` per name alive anywhere.

        A name is alive at a position when it is live in, live out or
        referenced there.  Inside a block a position's live-in is the
        previous position's live-out and its live-out is covered by its
        live-in plus its defs, so past the first position only the
        referenced names can be alive for the first time; backwards,
        past the last position only referenced names can be alive for
        the last time.  One forward walk (starts, access counts) and
        one backward walk (ends) therefore visit each block boundary's
        live set once and each register reference once.
        """
        from .loops import loop_depths

        depths = loop_depths(self.cfg)
        blocks = self.cfg.blocks
        dtype_of = self.dtype_of
        defs_at, uses_at = self._defs, self._uses
        ranges: Dict[str, LiveRange] = {}

        def open_range(name: str, pos: int) -> LiveRange:
            rng = LiveRange(
                name=name,
                dtype=dtype_of.get(name, DType.U32),
                start=pos,
                end=pos,
            )
            ranges[name] = rng
            return rng

        for block in blocks:
            first = block.start
            for name in sorted(self.live_in[first].difference(ranges)):
                open_range(name, first)
            weight_unit = 10.0 ** depths.get(block.index, 0)
            for pos in range(first, first + len(block)):
                for name in uses_at[pos]:
                    rng = ranges.get(name) or open_range(name, pos)
                    rng.uses += 1
                    rng.weight += weight_unit
                for name in defs_at[pos]:
                    rng = ranges.get(name) or open_range(name, pos)
                    rng.defs += 1
                    rng.weight += weight_unit

        ended: Set[str] = set()
        for block in reversed(blocks):
            last = block.start + len(block) - 1
            for name in self.live_out[last].difference(ended):
                ranges[name].end = last
                ended.add(name)
            for pos in range(last, block.start - 1, -1):
                for names in (defs_at[pos], uses_at[pos]):
                    for name in names:
                        if name not in ended:
                            ranges[name].end = pos
                            ended.add(name)
        return ranges

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def pressure_profile(self, reg_class=None) -> List[int]:
        """Register pressure at every global instruction position.

        ``profile[pos]`` counts the registers simultaneously occupied
        across position ``pos``: everything live out of it plus the
        values it defines (a def occupies its register at the defining
        instruction even when immediately dead).  With ``reg_class``
        given, counts only registers of that class; otherwise counts
        32-bit slots (64-bit registers weigh 2, predicates 0).

        This is the **one** pressure walk in the codebase:
        :meth:`max_pressure` is its maximum, and
        ``tests/test_pressure_consolidation.py`` pins both against an
        independent walk.
        """
        if reg_class is None:
            weight = {
                name: dtype.reg_class.slots
                for name, dtype in self.dtype_of.items()
            }
        else:
            weight = {
                name: int(dtype.reg_class is reg_class)
                for name, dtype in self.dtype_of.items()
            }
        return [
            sum(weight[name] for name in live.union(defs))
            for live, defs in zip(self.live_out, self._defs)
        ]

    def max_pressure(self, reg_class=None) -> int:
        """Peak number of simultaneously-live registers.

        With ``reg_class`` given, counts only registers of that class;
        otherwise counts 32-bit slots (64-bit registers weigh 2,
        predicates 0).  This is the paper's ``MaxReg`` when measured in
        slots: the registers per-thread "required to hold all the
        variables" (Section 4.1).
        """
        return max(self.pressure_profile(reg_class), default=0)


def analyze(kernel: Kernel) -> LivenessInfo:
    """Convenience: run liveness analysis on a kernel."""
    return LivenessInfo(kernel)


# ----------------------------------------------------------------------
# Shared pressure/interference primitives.
#
# Before PR 9 three call sites each re-walked liveness with their own
# copy of the same two conventions — (a) a def interferes with live-out
# minus the source of a register mov, and (b) within-block pressure
# deltas weighted in 32-bit slots.  They now all build on the two
# primitives below so the conventions cannot drift.
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class InterferenceSite:
    """One instruction position as interference construction sees it.

    ``move_src`` is the source register name when the instruction is a
    register-to-register ``mov`` — the one case where a def may share a
    register with a value live across it (coalescing).
    """

    pos: int
    inst: Instruction
    live_out: FrozenSet[str]
    move_src: Optional[str]


def iter_interference_sites(
    liveness: LivenessInfo,
) -> Iterator[InterferenceSite]:
    """Walk every position with the def-vs-live-out interference view.

    The single source of truth for the mov-coalescing exception, used
    by :func:`repro.regalloc.interference.build_interference` (graph
    construction) and the independent ``AL001`` recheck in
    :mod:`repro.verify.allocation` — the checker stays independent by
    consuming the *sites*, not the allocator's graph.
    """
    for pos, inst in enumerate(liveness.instructions):
        move_src: Optional[str] = None
        if (
            inst.opcode is Opcode.MOV
            and inst.srcs
            and isinstance(inst.srcs[0], Reg)
        ):
            move_src = inst.srcs[0].name
        yield InterferenceSite(pos, inst, liveness.live_out[pos], move_src)


class BlockPressureTracker:
    """Incremental within-block pressure accounting in 32-bit slots.

    Seeded from one basic block's instructions plus its live-out set,
    it answers "what is the net pressure delta of emitting the block's
    ``index``-th instruction next?" (:meth:`delta`) and advances its
    live-set model when that instruction is actually emitted
    (:meth:`emit`).  A value *births* at an instruction when it was
    dead before and survives after (more in-block accesses remain, or
    it is live out of the block); it *dies* when this is its last
    in-block access and it is not live out.  Slot weights follow
    liveness analysis: first occurrence of a name fixes its dtype,
    64-bit registers weigh 2, predicates 0.

    This is the pressure-delta machinery of the min-register scheduler
    (:mod:`repro.opt.minreg`), extracted so schedulers and analyses
    share one implementation.  ``tools/ledger.json`` pins the
    scheduler's output: ``verified_rewrites`` counts the rewrites of
    the registry pipeline, which ends with it, and the ``alloc``
    section hashes every app's allocations after
    ``copy-prop,dce,minreg-sched``.
    """

    def __init__(
        self, insts: Sequence[Instruction], live_out: FrozenSet[str]
    ) -> None:
        self.live_out = live_out
        #: per-name 32-bit slot weight (first occurrence wins, matching
        #: liveness analysis)
        self.slots: Dict[str, int] = {}
        #: remaining in-block access count per name
        self.remaining: "Counter[str]" = Counter()
        #: per instruction, the access count of each name it touches;
        #: the scheduler scores every ready instruction at every step
        self._touched: List[Dict[str, int]] = []
        first_is_use: Set[str] = set()
        seen: Set[str] = set()
        for inst in insts:
            touched: Dict[str, int] = {}
            for reg in inst.uses():
                self.slots.setdefault(reg.name, reg.dtype.reg_class.slots)
                touched[reg.name] = touched.get(reg.name, 0) + 1
                if reg.name not in seen:
                    first_is_use.add(reg.name)
                    seen.add(reg.name)
            for reg in inst.defs():
                self.slots.setdefault(reg.name, reg.dtype.reg_class.slots)
                touched[reg.name] = touched.get(reg.name, 0) + 1
                seen.add(reg.name)
            self.remaining.update(touched)
            self._touched.append(touched)
        #: names currently live in the block model; names whose first
        #: in-block access is a use flow in live from predecessors
        self.live: Set[str] = set(first_is_use)

    def delta(self, index: int) -> int:
        """Net slot delta (births minus deaths) of emitting instruction
        ``index`` now."""
        births = 0
        deaths = 0
        for name, count in self._touched[index].items():
            survives = (
                self.remaining[name] - count > 0 or name in self.live_out
            )
            if name not in self.live and survives:
                births += self.slots[name]
            elif name in self.live and not survives:
                deaths += self.slots[name]
        return births - deaths

    def emit(self, index: int) -> None:
        """Commit instruction ``index`` as emitted, advancing the
        live-set model."""
        for name, count in self._touched[index].items():
            self.remaining[name] -= count
            if self.remaining[name] > 0 or name in self.live_out:
                self.live.add(name)
            else:
                self.live.discard(name)

    def pressure(self) -> int:
        """Current modelled pressure of the live set, in slots."""
        return sum(self.slots[name] for name in self.live)
