"""Allocation validation (rules ``AL*``): is the rewritten kernel a
faithful compilation of the original?

Two entry points share the same slot-discipline machinery:

* :func:`verify_allocation` — given an :class:`AllocationResult`, use
  the allocator's own records (virtual→physical name map, spill-stack
  layouts and base registers) and *independently recompute liveness* on
  the pre-rename kernel to check the result.  This is the translation-
  validation path ``--verify`` runs on every candidate allocation.
* :func:`lint_spill_stacks` — given only a kernel (``repro verify`` on
  a PTX file), structurally discover spill stacks by their naming
  convention (``SpillStack``/``ShmSpill`` arrays) and base-address
  idiom (paper Listing 4), infer slots from the access stream, and run
  the same discipline checks.

Checks:

``AL001``
    Two virtual registers that are simultaneously live map to one
    physical register.  Mirrors the interference rule the allocator
    colors against (a def interferes with everything live out of it,
    minus the source of a register-to-register ``mov`` — coalesced
    copies legitimately share), but recomputes liveness from scratch
    instead of trusting the coloring.
``AL002``
    A spill reload from a slot that is not definitely stored on every
    path from entry — a reload of garbage.  Forward may-analysis over
    slot offsets, same solver family as the dataflow verifier.
``AL003``
    A spill access that overlaps a slot without matching it exactly
    (wrong offset or width): the load observes a neighbouring slot's
    bytes.
``AL004``
    Layout-level aliasing: overlapping slots, slots violating natural
    alignment, or — the PR 2 miscompile class — a per-thread-indexed
    shared record whose stride is not a multiple of its widest slot's
    alignment, so every odd thread's wide slots shear across record
    boundaries.
``AL005``
    Footprint overflow: accesses past the record stride, a declared
    array smaller than ``stride × block_size``, or a shared-spill plan
    exceeding the Algorithm 1 knapsack budget it was given.
``AL006``
    A spilled virtual register still referenced after rewriting (its
    value now lives in memory; any surviving register reference reads
    a stale or never-written register).

Deliberate non-goals (DESIGN.md §6): stores through recomputed or
copied base registers are not tracked (the inserted spill code never
does this), and guard feasibility is not modelled — a predicated spill
store counts as a store, matching the dataflow verifier's policy.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..cfg.dataflow import ForwardMaySolver
from ..cfg.graph import CFG
from ..cfg.liveness import LivenessInfo, iter_interference_sites
from ..ptx.instruction import Imm, Instruction, Reg, Sym
from ..ptx.isa import Opcode, RegClass, Space
from ..ptx.module import Kernel
from .diagnostics import Diagnostic, VerifyReport

# Naming conventions of the spill-code inserter (kept in sync with
# repro.regalloc.spill; imported lazily there to avoid a package cycle).
_SPILL_STACK_PREFIXES = ("SpillStack", "ShmSpill")


@dataclasses.dataclass(frozen=True)
class StackAccess:
    """One load/store through a spill-stack base register."""

    position: int
    block: int
    is_load: bool
    offset: int
    bytes: int
    instruction: Instruction


@dataclasses.dataclass
class StackRegion:
    """One spill stack as seen by the validator.

    ``slots`` maps offset → width.  In allocation mode they come from
    the recorded :class:`~repro.regalloc.spill.SpillStackLayout`; in
    lint mode they are inferred from the access stream (first access
    at an offset defines the slot).
    """

    stack_name: str
    space: Space
    base_reg: str
    record_bytes: int
    per_thread: bool
    slots: Dict[int, int]


def verify_allocation(
    result: "AllocationResult",  # noqa: F821 - imported lazily below
    stage: Optional[str] = None,
) -> VerifyReport:
    """Validate one :class:`~repro.regalloc.allocator.AllocationResult`."""
    kernel = result.pre_rename_kernel or result.kernel
    report = VerifyReport(kernel=kernel.name, stage=stage or "allocation")
    cfg = CFG(kernel)

    _check_spilled_gone(kernel, result.spilled, report)
    if result.name_map:
        _check_register_sharing(kernel, cfg, result.name_map, report)

    for info in result.spill_regions:
        region = StackRegion(
            stack_name=info.stack_name,
            space=info.space,
            base_reg=info.base_reg,
            record_bytes=info.record_bytes,
            per_thread=info.per_thread,
            slots={slot.offset: slot.bytes for slot in info.layout.slots},
        )
        _check_layout(kernel, region, report)
        accesses = _collect_accesses(cfg, region)
        _check_access_discipline(kernel, cfg, region, accesses, report)

    if result.shm_plan is not None:
        plan = result.shm_plan
        if plan.shared_block_bytes > plan.spare_shm_bytes:
            report.add(Diagnostic(
                rule="AL005", kernel=kernel.name, stage=report.stage,
                message=(
                    f"shared-spill plan uses {plan.shared_block_bytes} B "
                    f"per block but the Algorithm 1 budget is only "
                    f"{plan.spare_shm_bytes} B"
                ),
                data={"used_bytes": plan.shared_block_bytes,
                      "budget_bytes": plan.spare_shm_bytes},
            ))
    return report


def lint_spill_stacks(
    kernel: Kernel, stage: Optional[str] = None
) -> VerifyReport:
    """Structurally lint spill stacks in a bare kernel (``repro verify``).

    Only arrays following the spill naming convention are analysed —
    application shared-memory tiles are exchanged across threads
    through barriers, which slot discipline deliberately does not
    model.
    """
    try:
        cfg: Optional[CFG] = CFG(kernel)
    except ValueError:
        cfg = None
    return _spill_stack_lint(kernel, cfg, stage)


def _spill_stack_lint(
    kernel: Kernel, cfg: Optional[CFG], stage: Optional[str]
) -> VerifyReport:
    """:func:`lint_spill_stacks` on ``cfg``, the kernel's CFG as the
    caller built it: ``None`` when it does not build, which leaves the
    report empty (dataflow verification reports the broken CFG)."""
    report = VerifyReport(kernel=kernel.name, stage=stage or "lint")
    if cfg is None:
        return report
    for region in discover_spill_regions(kernel):
        accesses = _collect_accesses(cfg, region)
        _infer_slots(region, accesses, report, kernel)
        _check_layout(kernel, region, report)
        _check_access_discipline(kernel, cfg, region, accesses, report)
    return report


# ----------------------------------------------------------------------
# Register sharing (AL001) and residual spilled names (AL006).
# ----------------------------------------------------------------------
def _check_register_sharing(
    kernel: Kernel, cfg: CFG, name_map: Dict[str, str], report: VerifyReport
) -> None:
    liveness = LivenessInfo(kernel, cfg)

    def phys(name: str) -> str:
        return name_map.get(name, name)

    # The registers of each class that share one physical register, in
    # name order: a def is tested against its own group only.
    sharers: Dict[Tuple[RegClass, str], List[str]] = {}
    for name in sorted(liveness.dtype_of):
        key = (liveness.dtype_of[name].reg_class, phys(name))
        sharers.setdefault(key, []).append(name)

    flagged: Set[Tuple[str, str]] = set()
    for site in iter_interference_sites(liveness):
        pos, inst, move_src = site.pos, site.inst, site.move_src
        for dreg in inst.defs():
            dphys = phys(dreg.name)
            group = sharers[(liveness.dtype_of[dreg.name].reg_class, dphys)]
            for live_name in group:
                if (
                    live_name == dreg.name
                    or live_name == move_src
                    or live_name not in site.live_out
                ):
                    continue
                a, b = sorted((dreg.name, live_name))
                if (a, b) in flagged:
                    continue
                flagged.add((a, b))
                report.add(Diagnostic(
                    rule="AL001", kernel=kernel.name, position=pos,
                    instruction=str(inst), stage=report.stage,
                    message=(
                        f"virtual registers {a} and {b} are "
                        f"simultaneously live here but both map to "
                        f"physical register {dphys}"
                    ),
                    data={"registers": [a, b], "physical": dphys},
                ))


def _check_spilled_gone(
    kernel: Kernel, spilled: Dict[str, object], report: VerifyReport
) -> None:
    if not spilled:
        return
    for pos, inst in enumerate(kernel.instructions()):
        for reg in inst.regs():
            if reg.name in spilled:
                report.add(Diagnostic(
                    rule="AL006", kernel=kernel.name, position=pos,
                    instruction=str(inst), stage=report.stage,
                    message=(
                        f"spilled register {reg.name} is still "
                        f"referenced after spill rewriting"
                    ),
                    data={"register": reg.name},
                ))


# ----------------------------------------------------------------------
# Stack-region discovery (lint mode).
# ----------------------------------------------------------------------
def discover_spill_regions(kernel: Kernel) -> List[StackRegion]:
    """Find spill stacks by naming convention and base-address idiom.

    Recognizes paper Listing 4's two shapes:

    * ``mov.u64 %b, SpillStack`` — direct per-thread base;
    * ``mov.u64 %raw, ShmSpill`` followed by
      ``mad.lo.u64 %b, %tid64, <stride>, %raw`` — per-thread-indexed
      record in a block-shared array.

    A region is only accepted when its effective base register has a
    single definition in the whole kernel; anything cleverer than the
    inserter's own idiom is conservatively skipped.
    """
    spill_arrays = {
        a.name: a
        for a in kernel.arrays
        if a.name.startswith(_SPILL_STACK_PREFIXES)
    }
    if not spill_arrays:
        return []

    def_count: Dict[str, int] = {}
    for inst in kernel.instructions():
        for reg in inst.defs():
            def_count[reg.name] = def_count.get(reg.name, 0) + 1

    regions: List[StackRegion] = []
    claimed: Set[str] = set()  # raw bases consumed by a mad
    holds_sym: Dict[str, str] = {}  # reg name -> array it currently holds
    pending: List[Tuple[str, str]] = []  # (base reg, array) candidates
    for inst in kernel.instructions():
        # A mad over a symbol-holding raw base forms a per-thread base.
        if (
            inst.opcode is Opcode.MAD
            and inst.dst is not None
            and len(inst.srcs) == 3
            and isinstance(inst.srcs[1], Imm)
            and isinstance(inst.srcs[2], Reg)
            and inst.srcs[2].name in holds_sym
        ):
            arr_name = holds_sym[inst.srcs[2].name]
            claimed.add(inst.srcs[2].name)
            if def_count.get(inst.dst.name, 0) == 1:
                regions.append(StackRegion(
                    stack_name=arr_name,
                    space=spill_arrays[arr_name].space,
                    base_reg=inst.dst.name,
                    record_bytes=int(inst.srcs[1].value),
                    per_thread=True,
                    slots={},
                ))
        for reg in inst.defs():
            holds_sym.pop(reg.name, None)
        if (
            inst.opcode is Opcode.MOV
            and inst.dst is not None
            and len(inst.srcs) == 1
            and isinstance(inst.srcs[0], Sym)
            and inst.srcs[0].name in spill_arrays
        ):
            holds_sym[inst.dst.name] = inst.srcs[0].name
            pending.append((inst.dst.name, inst.srcs[0].name))

    # Direct (non-indexed) bases: single-def movs never consumed by a mad.
    for base, arr_name in pending:
        if base in claimed or def_count.get(base, 0) != 1:
            continue
        arr = spill_arrays[arr_name]
        regions.append(StackRegion(
            stack_name=arr_name,
            space=arr.space,
            base_reg=base,
            record_bytes=arr.size_bytes,
            per_thread=False,
            slots={},
        ))
    return regions


def _infer_slots(
    region: StackRegion,
    accesses: List[StackAccess],
    report: VerifyReport,
    kernel: Kernel,
) -> None:
    """Lint mode: infer the slot map from the access stream.

    Stores define slots (first store at an offset wins); loads at
    un-stored offsets define load-only slots *unless* they overlap an
    existing slot — those stay slotless so the discipline check reports
    them as aliasing accesses (``AL003``) rather than inventing an
    overlapping layout.
    """
    for acc in accesses:
        if not acc.is_load:
            region.slots.setdefault(acc.offset, acc.bytes)
    for acc in accesses:
        if acc.is_load and acc.offset not in region.slots:
            overlaps = any(
                off < acc.offset + acc.bytes and acc.offset < off + width
                for off, width in region.slots.items()
            )
            if not overlaps:
                region.slots[acc.offset] = acc.bytes
    if region.per_thread:
        return
    # Direct stacks have no independent stride; derive it from the slots
    # so the layout checks see the real footprint.
    if region.slots:
        region.record_bytes = max(
            off + width for off, width in region.slots.items()
        )


# ----------------------------------------------------------------------
# Shared discipline checks.
# ----------------------------------------------------------------------
def _collect_accesses(cfg: CFG, region: StackRegion) -> List[StackAccess]:
    accesses: List[StackAccess] = []
    for block in cfg.blocks:
        for pos, inst in block.positions():
            if (
                not inst.is_memory
                or inst.mem is None
                or not isinstance(inst.mem.base, Reg)
                or inst.mem.base.name != region.base_reg
                or inst.space is not region.space
            ):
                continue
            width = inst.dtype.bytes if inst.dtype is not None else 4
            accesses.append(StackAccess(
                position=pos,
                block=block.index,
                is_load=inst.opcode is Opcode.LD,
                offset=inst.mem.offset,
                bytes=width,
                instruction=inst,
            ))
    return accesses


def _check_layout(
    kernel: Kernel, region: StackRegion, report: VerifyReport
) -> None:
    """AL004/AL005 on the slot layout and declared array."""
    slots = sorted(region.slots.items())
    prev_end = 0
    prev_off = None
    for offset, width in slots:
        if prev_off is not None and offset < prev_end:
            report.add(Diagnostic(
                rule="AL004", kernel=kernel.name, stage=report.stage,
                message=(
                    f"{region.stack_name}: slot at offset {offset} "
                    f"({width} B) overlaps the slot at offset "
                    f"{prev_off} ending at {prev_end}"
                ),
                data={"stack": region.stack_name, "offset": offset,
                      "bytes": width, "overlaps_offset": prev_off},
            ))
        if offset % max(width, 1) != 0:
            report.add(Diagnostic(
                rule="AL004", kernel=kernel.name, stage=report.stage,
                message=(
                    f"{region.stack_name}: slot at offset {offset} "
                    f"violates natural alignment for its {width}-byte "
                    f"width"
                ),
                data={"stack": region.stack_name, "offset": offset,
                      "bytes": width},
            ))
        prev_off, prev_end = offset, offset + width
    if not slots:
        return

    widest = max(width for _, width in slots)
    footprint = max(off + width for off, width in slots)
    if region.per_thread:
        if region.record_bytes % max(widest, 4) != 0:
            report.add(Diagnostic(
                rule="AL004", kernel=kernel.name, stage=report.stage,
                message=(
                    f"{region.stack_name}: per-thread record stride "
                    f"{region.record_bytes} B is not a multiple of the "
                    f"widest slot's {widest}-byte alignment — wide "
                    f"slots shear across record boundaries for odd "
                    f"threads"
                ),
                data={"stack": region.stack_name,
                      "record_bytes": region.record_bytes,
                      "widest_slot_bytes": widest},
            ))
        if footprint > region.record_bytes:
            report.add(Diagnostic(
                rule="AL005", kernel=kernel.name, stage=report.stage,
                message=(
                    f"{region.stack_name}: slots occupy {footprint} B "
                    f"but the per-thread record stride is only "
                    f"{region.record_bytes} B — records alias their "
                    f"neighbours"
                ),
                data={"stack": region.stack_name, "footprint": footprint,
                      "record_bytes": region.record_bytes},
            ))

    arr = kernel.find_array(region.stack_name)
    if arr is not None:
        needed = (
            region.record_bytes * kernel.block_size
            if region.per_thread
            else footprint
        )
        if arr.size_bytes < needed:
            report.add(Diagnostic(
                rule="AL005", kernel=kernel.name, stage=report.stage,
                message=(
                    f"{region.stack_name}: declared {arr.size_bytes} B "
                    f"but {needed} B are needed "
                    + (
                        f"({region.record_bytes} B/thread × "
                        f"{kernel.block_size} threads)"
                        if region.per_thread
                        else "(slot footprint)"
                    )
                ),
                data={"stack": region.stack_name,
                      "declared_bytes": arr.size_bytes,
                      "needed_bytes": needed},
            ))


def _check_access_discipline(
    kernel: Kernel,
    cfg: CFG,
    region: StackRegion,
    accesses: List[StackAccess],
    report: VerifyReport,
) -> None:
    """AL002/AL003/AL005 on the access stream of one region."""
    by_pos: Dict[int, List[StackAccess]] = {}
    for acc in accesses:
        by_pos.setdefault(acc.position, []).append(acc)

    # AL003: every access must exactly match a slot.  AL005: accesses
    # past the record stride reach into the next thread's record.
    matched: Dict[int, bool] = {}
    for acc in accesses:
        width = region.slots.get(acc.offset)
        exact = width == acc.bytes
        matched[acc.position] = exact
        if exact:
            if (
                region.per_thread
                and acc.offset + acc.bytes > region.record_bytes
            ):
                report.add(Diagnostic(
                    rule="AL005", kernel=kernel.name, block=acc.block,
                    position=acc.position, stage=report.stage,
                    instruction=str(acc.instruction),
                    message=(
                        f"{region.stack_name}: access at offset "
                        f"{acc.offset} (+{acc.bytes} B) runs past the "
                        f"{region.record_bytes}-byte per-thread record"
                    ),
                    data={"stack": region.stack_name,
                          "offset": acc.offset, "bytes": acc.bytes,
                          "record_bytes": region.record_bytes},
                ))
            continue
        overlapped = [
            off for off, w in region.slots.items()
            if off < acc.offset + acc.bytes and acc.offset < off + w
        ]
        report.add(Diagnostic(
            rule="AL003", kernel=kernel.name, block=acc.block,
            position=acc.position, stage=report.stage,
            instruction=str(acc.instruction),
            message=(
                f"{region.stack_name}: {acc.bytes}-byte "
                f"{'load' if acc.is_load else 'store'} at offset "
                f"{acc.offset} does not match any slot"
                + (
                    f" (overlaps slot(s) at "
                    f"{', '.join(str(o) for o in sorted(overlapped))})"
                    if overlapped
                    else ""
                )
            ),
            data={"stack": region.stack_name, "offset": acc.offset,
                  "bytes": acc.bytes,
                  "overlaps": sorted(overlapped)},
        ))

    # AL002: forward may-analysis over slot offsets — a slot is
    # "maybe unwritten" until a store to it post-dominates... more
    # precisely: at a reload, no path from entry may lack a store.
    slot_ids = frozenset(region.slots)
    if not slot_ids:
        return
    store_kills: Dict[int, Set[int]] = {}
    for block in cfg.blocks:
        killed: Set[int] = set()
        for pos, _ in block.positions():
            for acc in by_pos.get(pos, []):
                if not acc.is_load and matched.get(pos):
                    killed.add(acc.offset)
        store_kills[block.index] = killed

    def transfer(idx: int, in_set: FrozenSet[int]) -> FrozenSet[int]:
        if idx == 0:
            in_set = slot_ids
        return in_set - store_kills[idx]

    solver: ForwardMaySolver[int] = ForwardMaySolver(cfg, transfer)
    solver.solve()

    flagged: Set[int] = set()
    for block in cfg.blocks:
        maybe_unwritten: Set[int] = set(solver.in_sets[block.index])
        if block.index == 0:
            maybe_unwritten |= set(slot_ids)
        for pos, _ in block.positions():
            for acc in by_pos.get(pos, []):
                if (
                    acc.is_load
                    and matched.get(pos)
                    and acc.offset in maybe_unwritten
                    and acc.offset not in flagged
                ):
                    flagged.add(acc.offset)
                    report.add(Diagnostic(
                        rule="AL002", kernel=kernel.name,
                        block=acc.block, position=pos,
                        instruction=str(acc.instruction),
                        stage=report.stage,
                        message=(
                            f"{region.stack_name}: reload from slot "
                            f"offset {acc.offset} on a path with no "
                            f"prior store to that slot"
                        ),
                        data={"stack": region.stack_name,
                              "offset": acc.offset},
                    ))
                if not acc.is_load and matched.get(pos):
                    maybe_unwritten.discard(acc.offset)
