"""Dominance-aware dataflow verification of one kernel (rules ``DF*``).

The DF rules are the one definition of a well-formed kernel: a
may-be-uninitialized analysis over the CFG flags a use (``DF001``) when
*some* path from entry reaches it without a prior definition of the
register, computed with the generic
:class:`~repro.cfg.dataflow.ForwardMaySolver` (union meet, entry
generates every register as uninitialized, definitions kill).

Also checked, all on the CFG rather than the flat body:

* ``DF002`` — uses of registers with no definition anywhere;
* ``DF003`` — blocks unreachable from entry (warning);
* ``DF004`` — control falling off the end: a reachable block with no
  terminator and no fall-through successor;
* ``DF005`` — one register name used with two incompatible register
  classes (an f32/s32 pun never survives allocation);
* ``DF006``/``DF008``/``DF009`` — branch targets, symbol references,
  duplicate labels;
* ``DF007`` — per-instruction operand typing (width and float/int
  class of each register operand, predicate guards and selectors).

:func:`verify_kernel` is the load gate every CLI command and daemon job
but ``verify`` passes PTX text through: any error-severity finding is a
:class:`~repro.errors.ParseError` (exit 2) naming its codes.

Deliberate non-goals (documented in DESIGN.md §6): predicated
definitions count as definitions (guard feasibility is not modelled),
and memory contents are out of scope here (the allocation validator
owns spill slots).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set

from ..cfg.dataflow import ForwardMaySolver
from ..cfg.graph import CFG
from ..errors import ParseError
from ..ptx.instruction import Instruction, Reg, Sym
from ..ptx.isa import DType, Opcode
from ..ptx.module import Kernel
from .diagnostics import Diagnostic, VerifyReport


def verify_kernel(kernel: Kernel, cfg: Optional[CFG] = None) -> None:
    """The load gate: raise :class:`~repro.errors.ParseError` (exit 2)
    naming the code and message of every error-severity DF finding.
    Warnings (``DF003``) pass.  ``cfg`` is the kernel's CFG, when the
    caller has built it."""
    errors = verify_dataflow(kernel, cfg, stage="parse").errors
    if errors:
        raise ParseError(
            f"{len(errors)} DF error(s): "
            + "; ".join(f"{d.rule} {d.message}" for d in errors),
            kernel=kernel.name,
            stage="parse",
        )


def verify_dataflow(
    kernel: Kernel,
    cfg: Optional[CFG] = None,
    stage: Optional[str] = None,
) -> VerifyReport:
    """Run every ``DF`` rule over ``kernel`` and return the report."""
    report = VerifyReport(kernel=kernel.name, stage=stage)

    labels = kernel.labels()
    label_set = set(labels)
    if len(label_set) != len(labels):
        seen: Set[str] = set()
        for name in labels:
            if name in seen:
                report.add(Diagnostic(
                    rule="DF009", kernel=kernel.name, stage=stage,
                    message=f"label {name!r} defined more than once",
                    data={"label": name},
                ))
            seen.add(name)

    # Branch targets must exist before a CFG can even be built.
    for pos, inst in enumerate(kernel.instructions()):
        if inst.is_branch and inst.target not in label_set:
            report.add(Diagnostic(
                rule="DF006", kernel=kernel.name, position=pos,
                instruction=str(inst), stage=stage,
                message=f"branch to undefined label {inst.target!r}",
                data={"target": inst.target},
            ))
    if not report.ok:
        return report
    if not kernel.instructions():
        report.add(Diagnostic(
            rule="DF004", kernel=kernel.name, stage=stage,
            message="kernel has no instructions (no terminator to reach)",
        ))
        return report

    if cfg is None:
        cfg = CFG(kernel)

    reachable = _reachable(cfg)
    for block in cfg.blocks:
        if block.index not in reachable:
            report.add(Diagnostic(
                rule="DF003", kernel=kernel.name, block=block.index,
                position=block.start, stage=stage,
                message="basic block unreachable from entry"
                + (f" (label {block.label!r})" if block.label else ""),
                data={"label": block.label},
            ))

    # DF004: a reachable block that neither terminates nor falls
    # through (the CFG gives fall-through blocks a successor; only the
    # final block can run off the end).
    for block in cfg.blocks:
        if block.index not in reachable or not block.instructions:
            continue
        if block.terminator is None and not block.successors:
            report.add(Diagnostic(
                rule="DF004", kernel=kernel.name, block=block.index,
                position=block.start + len(block.instructions) - 1,
                instruction=str(block.instructions[-1]), stage=stage,
                message="control falls off the end of the kernel "
                        "(block has no terminator and no fall-through)",
            ))

    _check_register_classes(kernel, report, stage)
    _check_def_before_use(kernel, cfg, reachable, report, stage)
    _check_symbols_and_types(kernel, report, stage)
    return report


def _reachable(cfg: CFG) -> Set[int]:
    seen = {0} if cfg.blocks else set()
    stack = [0] if cfg.blocks else []
    while stack:
        idx = stack.pop()
        for succ in cfg.blocks[idx].successors:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def _check_register_classes(
    kernel: Kernel, report: VerifyReport, stage: Optional[str]
) -> None:
    """DF005: one name, two incompatible register classes."""
    class_of: Dict[str, object] = {}
    first_pos: Dict[str, int] = {}
    flagged: Set[str] = set()
    for pos, inst in enumerate(kernel.instructions()):
        for reg in inst.regs():
            rc = reg.dtype.reg_class
            prev = class_of.get(reg.name)
            if prev is None:
                class_of[reg.name] = rc
                first_pos[reg.name] = pos
            elif prev is not rc and reg.name not in flagged:
                flagged.add(reg.name)
                report.add(Diagnostic(
                    rule="DF005", kernel=kernel.name, position=pos,
                    instruction=str(inst), stage=stage,
                    message=(
                        f"register {reg.name} used as class "
                        f"{rc.value!r} here but class "
                        f"{prev.value!r} at inst {first_pos[reg.name]}"
                    ),
                    data={"register": reg.name,
                          "classes": sorted((prev.value, rc.value))},
                ))


def _check_def_before_use(
    kernel: Kernel,
    cfg: CFG,
    reachable: Set[int],
    report: VerifyReport,
    stage: Optional[str],
) -> None:
    """DF001/DF002 via a forward may-be-uninitialized analysis."""
    all_regs = kernel.register_names()
    defined_somewhere: Set[str] = set()
    for inst in kernel.instructions():
        defined_somewhere.update(r.name for r in inst.defs())

    # Per-block kill sets (any definition, guarded or not — guard
    # feasibility is deliberately out of scope).
    kills: Dict[int, Set[str]] = {}
    for block in cfg.blocks:
        killed: Set[str] = set()
        for inst in block.instructions:
            killed.update(r.name for r in inst.defs())
        kills[block.index] = killed

    everything = frozenset(all_regs)

    def transfer(idx: int, in_set: FrozenSet[str]) -> FrozenSet[str]:
        if idx == 0:
            in_set = everything
        return in_set - kills[idx]

    solver: ForwardMaySolver[str] = ForwardMaySolver(cfg, transfer)
    solver.solve()

    flagged: Set[str] = set()
    for block in cfg.blocks:
        if block.index not in reachable:
            continue  # DF003 already covers these; avoid noise
        maybe_uninit: Set[str] = set(solver.in_sets[block.index])
        if block.index == 0:
            maybe_uninit |= all_regs
        for pos, inst in block.positions():
            for reg in inst.uses():
                if reg.name in maybe_uninit and reg.name not in flagged:
                    flagged.add(reg.name)
                    if reg.name not in defined_somewhere:
                        report.add(Diagnostic(
                            rule="DF002", kernel=kernel.name,
                            block=block.index, position=pos,
                            instruction=str(inst), stage=stage,
                            message=f"use of never-defined register "
                                    f"{reg.name}",
                            data={"register": reg.name},
                        ))
                    else:
                        report.add(Diagnostic(
                            rule="DF001", kernel=kernel.name,
                            block=block.index, position=pos,
                            instruction=str(inst), stage=stage,
                            message=(
                                f"register {reg.name} may be used before "
                                f"definition (a path from entry reaches "
                                f"this use with no prior def)"
                            ),
                            data={"register": reg.name},
                        ))
            for reg in inst.defs():
                maybe_uninit.discard(reg.name)


def _check_symbols_and_types(
    kernel: Kernel, report: VerifyReport, stage: Optional[str]
) -> None:
    """DF007/DF008: operand typing and symbol declarations."""
    declared = {a.name for a in kernel.arrays}
    declared.update(p.name for p in kernel.params)
    for pos, inst in enumerate(kernel.instructions()):
        for operand in inst.srcs:
            if isinstance(operand, Sym) and operand.name not in declared:
                report.add(Diagnostic(
                    rule="DF008", kernel=kernel.name, position=pos,
                    instruction=str(inst), stage=stage,
                    message=f"reference to undeclared symbol "
                            f"{operand.name}",
                    data={"symbol": operand.name},
                ))
        if inst.mem is not None and isinstance(inst.mem.base, Sym):
            if inst.mem.base.name not in declared:
                report.add(Diagnostic(
                    rule="DF008", kernel=kernel.name, position=pos,
                    instruction=str(inst), stage=stage,
                    message=f"memory reference to undeclared symbol "
                            f"{inst.mem.base.name}",
                    data={"symbol": inst.mem.base.name},
                ))
        for problem in _check_types(inst):
            report.add(Diagnostic(
                rule="DF007", kernel=kernel.name, position=pos,
                instruction=str(inst), stage=stage, message=problem,
            ))


def _compatible(reg: Reg, inst_dtype: DType) -> bool:
    """Whether a register may appear in an instruction of this dtype.

    Exact match is not required (PTX allows bit-compatible uses, e.g. a
    ``u32`` register in an ``s32`` add) but width and float/int class
    must agree.  Predicate registers only appear where predicates are
    expected, which callers special-case.
    """
    if reg.dtype is DType.PRED:
        return False
    if reg.dtype.is_float != inst_dtype.is_float:
        return False
    return reg.dtype.bits == inst_dtype.bits


def _check_types(inst: Instruction) -> List[str]:
    """DF007 problems of one instruction (PTX is type-sensitive, paper
    Section 5.2)."""
    problems: List[str] = []
    dtype = inst.dtype
    if inst.guard is not None and inst.guard.dtype is not DType.PRED:
        problems.append(f"guard {inst.guard.name} is not a predicate")
    if dtype is None:
        return problems

    # Destination typing.
    if inst.dst is not None:
        if inst.opcode is Opcode.SETP:
            if inst.dst.dtype is not DType.PRED:
                problems.append("setp destination must be a predicate")
        elif inst.opcode in (Opcode.CVT, Opcode.MOV, Opcode.LD):
            # cvt/mov/ld destination carries the instruction dtype.
            if inst.dst.dtype is DType.PRED:
                problems.append("predicate used as data destination")
            elif not _compatible(inst.dst, dtype):
                problems.append(
                    f"destination {inst.dst.name}:{inst.dst.dtype.value} "
                    f"incompatible with .{dtype.value}"
                )
        else:
            if not _compatible(inst.dst, dtype):
                problems.append(
                    f"destination {inst.dst.name}:{inst.dst.dtype.value} "
                    f"incompatible with .{dtype.value}"
                )

    # Source typing: mov/cvt may widen/convert; selp's last src is a pred.
    if inst.opcode in (Opcode.MOV, Opcode.CVT):
        return problems
    srcs = inst.srcs
    if inst.opcode is Opcode.SELP and srcs:
        pred = srcs[-1]
        if not (isinstance(pred, Reg) and pred.dtype is DType.PRED):
            problems.append("selp selector must be a predicate register")
        srcs = srcs[:-1]
    if inst.opcode in (Opcode.SHL, Opcode.SHR) and len(srcs) == 2:
        srcs = srcs[:1]  # shift amounts are u32 regardless of value type
    for src in srcs:
        if isinstance(src, Reg):
            if src.dtype is DType.PRED:
                problems.append(f"predicate {src.name} used as data operand")
            elif not _compatible(src, dtype):
                problems.append(
                    f"source {src.name}:{src.dtype.value} "
                    f"incompatible with .{dtype.value}"
                )
    return problems
