"""Rematerialization of constant-defined spill candidates.

A variable whose only definition is ``mov <reg>, <immediate>`` never
needs a memory home: instead of spilling it, the allocator deletes the
definition and re-creates the constant with a fresh ``mov`` immediately
before each use (Briggs' rematerialization).  This is dramatically
cheaper than a memory spill — one ALU instruction per use instead of a
local-memory round trip — and is what production GPU compilers do with
the coefficient constants that otherwise dominate spill candidates.

The extra ``mov`` instructions are accounted separately
(``num_remat_insts``) and enter the TPSC spill cost through the
``Num_others`` term.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Set

from ..ptx.instruction import Imm, Instruction, Label, Reg
from ..ptx.isa import Opcode
from ..ptx.module import Kernel
from .spill import _TempNamer


@dataclasses.dataclass
class RematResult:
    """Outcome of one rematerialization pass."""

    kernel: Kernel
    temp_names: Set[str]
    num_remat_insts: int
    rematerialized: Dict[str, Imm]


def remat_candidates(kernel: Kernel, names) -> Dict[str, Imm]:
    """The subset of ``names`` eligible for rematerialization.

    Eligible means: exactly one definition in the kernel, and that
    definition is ``mov`` of an immediate.
    """
    defs: Dict[str, List[Instruction]] = {}
    names = set(names)
    for inst in kernel.instructions():
        for reg in inst.defs():
            if reg.name in names:
                defs.setdefault(reg.name, []).append(inst)
    eligible: Dict[str, Imm] = {}
    for name, sites in defs.items():
        if len(sites) != 1:
            continue
        inst = sites[0]
        if (
            inst.opcode is Opcode.MOV
            and inst.guard is None
            and len(inst.srcs) == 1
            and isinstance(inst.srcs[0], Imm)
        ):
            eligible[name] = inst.srcs[0]
    return eligible


def rematerialize(kernel: Kernel, values: Dict[str, Imm]) -> RematResult:
    """Drop the defs of ``values`` and re-create them before each use.

    Returns a new kernel; the input is unmodified.  Temporaries holding
    rematerialized constants live for a single instruction, so they are
    reported as unspillable to subsequent coloring rounds.
    """
    if not values:
        return RematResult(kernel, set(), 0, {})
    # Each new ``mov`` is typed like the definition it re-creates, not
    # like the use: a use's Reg may carry another dtype (a parsed
    # ``cvt.f32 %f1, %r4`` types ``%r4`` from the cvt, since PTX prints
    # no source type), and the allocation must not depend on that.
    def_dtypes = {
        inst.dst.name: inst.dtype
        for inst in kernel.instructions()
        if inst.opcode is Opcode.MOV
        and inst.dst is not None
        and inst.dst.name in values
    }
    namer = _TempNamer(kernel)
    new_body: List = []
    temp_names: Set[str] = set()
    count = 0
    for item in kernel.body:
        if isinstance(item, Label):
            new_body.append(item)
            continue
        inst = item
        # Drop the (single, mov-imm) definition.
        if (
            inst.opcode is Opcode.MOV
            and inst.dst is not None
            and inst.dst.name in values
            and len(inst.srcs) == 1
            and isinstance(inst.srcs[0], Imm)
        ):
            continue
        mapping: Dict[str, Reg] = {}
        for reg in dict.fromkeys(inst.uses()):
            if reg.name in values and reg.name not in mapping:
                imm = values[reg.name]
                dtype = def_dtypes.get(reg.name) or reg.dtype
                tmp = namer.fresh(dtype)
                temp_names.add(tmp.name)
                new_body.append(
                    Instruction(Opcode.MOV, dtype=dtype, dst=tmp, srcs=(imm,))
                )
                mapping[reg.name] = tmp
                count += 1
        if mapping:
            inst = inst.rewrite_regs(lambda r: mapping.get(r.name, r))
        new_body.append(inst)
    out = dataclasses.replace(kernel, body=new_body)
    return RematResult(out, temp_names, count, dict(values))
