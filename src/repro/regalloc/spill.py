"""Spill-stack layout and spill-code insertion (paper Listing 4).

When coloring fails, spilled variables move to a per-thread ``SpillStack``
array.  By default the stack lives in *local* memory: every use of a
spilled variable is preceded by ``ld.local`` into a fresh short-lived
temporary, and every definition is followed by ``st.local``.  A 64-bit
addressing register holds the stack base, because "PTX ISA does not
support displacement addressing mode" from a symbol directly (paper
Section 5.1) — exactly the ``%d0`` of Listing 4.

The layout object records which slot each variable occupies so that the
shared-memory spilling optimization (:mod:`repro.regalloc.shm_spill`)
can later split the stack into typed sub-stacks and relocate some of
them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ptx.instruction import Imm, Instruction, Label, MemRef, Reg, Sym
from ..ptx.isa import DType, Opcode, Space
from ..ptx.module import ArrayDecl, Kernel

SPILL_STACK_NAME = "SpillStack"
SHARED_SPILL_NAME = "ShmSpill"

#: Test-only mutation switch: skip the widest-slot padding of
#: :attr:`SpillStackLayout.total_bytes`, re-introducing the PR 2
#: record-stride miscompile (odd threads' wide slots shear across
#: record boundaries).  Exists so ``tests/test_verify.py`` can assert
#: the allocation validator catches exactly that bug class (AL004).
#: Never set outside tests.
UNSAFE_UNPADDED_RECORDS = False


@dataclasses.dataclass(frozen=True)
class SpillSlot:
    """One spilled variable's home in the spill stack."""

    name: str
    dtype: DType
    offset: int

    @property
    def bytes(self) -> int:
        return self.dtype.bytes


@dataclasses.dataclass(frozen=True)
class SpillStackLayout:
    """Layout of the per-thread spill stack."""

    slots: Tuple[SpillSlot, ...] = ()

    @property
    def total_bytes(self) -> int:
        """Record size, padded to the widest slot's natural alignment.

        The padding matters for per-thread-indexed shared stacks: each
        thread's record starts at ``base + tid * total_bytes``, so a
        record holding an 8-byte slot must itself be a multiple of 8 —
        a 28-byte record would leave every odd thread's u64 slot
        misaligned.
        """
        if not self.slots:
            return 0
        last = max(self.slots, key=lambda s: s.offset)
        if UNSAFE_UNPADDED_RECORDS:
            return _align(last.offset + last.bytes, 4)
        widest = max(s.bytes for s in self.slots)
        return _align(last.offset + last.bytes, max(widest, 4))

    def slot_of(self, name: str) -> SpillSlot:
        for slot in self.slots:
            if slot.name == name:
                return slot
        raise KeyError(f"no spill slot for {name!r}")

    def __len__(self) -> int:
        return len(self.slots)


@dataclasses.dataclass(frozen=True)
class SpillRegionInfo:
    """Everything the allocation validator needs about one spill stack."""

    stack_name: str
    space: Space
    base_reg: str
    record_bytes: int
    per_thread: bool
    layout: SpillStackLayout


@dataclasses.dataclass
class SpillCodeResult:
    """Outcome of one spill-code insertion pass."""

    kernel: Kernel
    layout: SpillStackLayout
    base_reg: Optional[Reg]
    temp_names: Set[str]
    num_loads: int
    num_stores: int
    num_address_insts: int
    space: Space = Space.LOCAL
    #: Name of the stack array, per-thread indexing, and the record
    #: stride actually used — recorded so the allocation validator can
    #: recheck slot discipline without re-deriving the layout.
    stack_name: str = SPILL_STACK_NAME
    per_thread: bool = False
    record_bytes: int = 0

    def region(self) -> Optional[SpillRegionInfo]:
        """The validator-facing record of this stack (None if empty)."""
        if self.base_reg is None or not self.layout.slots:
            return None
        return SpillRegionInfo(
            stack_name=self.stack_name,
            space=self.space,
            base_reg=self.base_reg.name,
            record_bytes=self.record_bytes,
            per_thread=self.per_thread,
            layout=self.layout,
        )

    @property
    def static_spill_bytes(self) -> int:
        """Static spill traffic: bytes moved if each spill inst runs once."""
        load_bytes = sum(
            s.bytes * self._count_for(s.name, load=True) for s in self.layout.slots
        )
        store_bytes = sum(
            s.bytes * self._count_for(s.name, load=False) for s in self.layout.slots
        )
        return load_bytes + store_bytes

    def _count_for(self, name: str, load: bool) -> int:
        slot = self.layout.slot_of(name)
        opcode = Opcode.LD if load else Opcode.ST
        count = 0
        for inst in self.kernel.instructions():
            if (
                inst.opcode is opcode
                and inst.space is self.space
                and inst.mem is not None
                and self.base_reg is not None
                and isinstance(inst.mem.base, Reg)
                and inst.mem.base.name == self.base_reg.name
                and inst.mem.offset == slot.offset
            ):
                count += 1
        return count


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def layout_stack(spilled: Iterable[Tuple[str, DType]]) -> SpillStackLayout:
    """Assign spill-stack offsets, widest-first to keep natural alignment."""
    slots: List[SpillSlot] = []
    offset = 0
    ordered = sorted(spilled, key=lambda item: (-item[1].bytes, item[0]))
    for name, dtype in ordered:
        offset = _align(offset, dtype.bytes)
        slots.append(SpillSlot(name, dtype, offset))
        offset += dtype.bytes
    return SpillStackLayout(tuple(slots))


class _TempNamer:
    """Fresh-register factory shared across register classes."""

    def __init__(self, kernel: Kernel):
        self._existing = kernel.register_names()
        self._counters: Dict[str, int] = {}

    def fresh(self, dtype: DType) -> Reg:
        prefix = f"%{dtype.reg_class.value}"
        count = self._counters.get(prefix, 0)
        while f"{prefix}s{count}" in self._existing:
            count += 1
        name = f"{prefix}s{count}"
        self._counters[prefix] = count + 1
        self._existing.add(name)
        return Reg(name, dtype)


def insert_spill_code(
    kernel: Kernel,
    spilled: Dict[str, DType],
    space: Space = Space.LOCAL,
    stack_name: str = SPILL_STACK_NAME,
    per_thread_indexing: bool = False,
) -> SpillCodeResult:
    """Rewrite ``kernel`` so the given variables live in the spill stack.

    Returns a *new* kernel; the input is not mutated.  Each use of a
    spilled variable loads into a fresh temporary immediately before the
    using instruction; each definition stores immediately after (with
    the defining instruction's guard, so predicated writes stay
    predicated).

    With ``per_thread_indexing=False`` (local memory), the stack is a
    per-thread array and one ``mov`` materializes its base — local
    memory is already thread-private on GPUs (paper Listing 4).  With
    ``per_thread_indexing=True`` (shared memory), the array is shared by
    the whole block, so it is sized ``record_bytes * block_size`` and
    each thread's base is ``ShmSpill + tid * record_bytes``; the extra
    address arithmetic is counted in ``num_address_insts`` — exactly
    the paper's ``Num_others`` term of the TPSC spill cost.
    """
    if space not in (Space.LOCAL, Space.SHARED):
        raise ValueError("spill stacks live in local or shared memory")
    if per_thread_indexing and space is not Space.SHARED:
        raise ValueError("per-thread indexing only applies to shared spill stacks")
    if not spilled:
        return SpillCodeResult(
            kernel=kernel,
            layout=SpillStackLayout(),
            base_reg=None,
            temp_names=set(),
            num_loads=0,
            num_stores=0,
            num_address_insts=0,
            space=space,
            stack_name=stack_name,
            per_thread=per_thread_indexing,
            record_bytes=0,
        )

    layout = layout_stack(spilled.items())
    namer = _TempNamer(kernel)
    base_reg = namer.fresh(DType.U64)
    record_bytes = layout.total_bytes
    array_bytes = record_bytes * (kernel.block_size if per_thread_indexing else 1)
    stack = ArrayDecl(stack_name, space, array_bytes, align=4)

    prelude: List[Instruction]
    if per_thread_indexing:
        tid = namer.fresh(DType.U32)
        tid64 = namer.fresh(DType.U64)
        raw_base = namer.fresh(DType.U64)
        from ..ptx.instruction import Sreg

        prelude = [
            Instruction(Opcode.MOV, dtype=DType.U32, dst=tid, srcs=(Sreg("%tid.x"),)),
            Instruction(Opcode.CVT, dtype=DType.U64, dst=tid64, srcs=(tid,)),
            Instruction(
                Opcode.MOV, dtype=DType.U64, dst=raw_base, srcs=(Sym(stack_name),)
            ),
            Instruction(
                Opcode.MAD,
                dtype=DType.U64,
                dst=base_reg,
                srcs=(tid64, Imm(record_bytes, DType.U64), raw_base),
            ),
        ]
    else:
        prelude = [
            Instruction(
                Opcode.MOV, dtype=DType.U64, dst=base_reg, srcs=(Sym(stack_name),)
            )
        ]
    new_body: List = list(prelude)
    num_loads = 0
    num_stores = 0
    temp_names: Set[str] = {inst.dst.name for inst in prelude if inst.dst is not None}

    for item in kernel.body:
        if isinstance(item, Label):
            new_body.append(item)
            continue
        inst = item
        mapping: Dict[str, Reg] = {}
        loads: List[Instruction] = []
        stores: List[Instruction] = []
        for reg in dict.fromkeys(inst.uses()):
            if reg.name in spilled and reg.name not in mapping:
                tmp = namer.fresh(spilled[reg.name])
                mapping[reg.name] = tmp
                temp_names.add(tmp.name)
                slot = layout.slot_of(reg.name)
                loads.append(
                    Instruction(
                        Opcode.LD,
                        dtype=slot.dtype,
                        dst=tmp,
                        mem=MemRef(base_reg, slot.offset),
                        space=space,
                    )
                )
                num_loads += 1
        for reg in inst.defs():
            if reg.name in spilled:
                tmp = mapping.get(reg.name)
                if tmp is None:
                    tmp = namer.fresh(spilled[reg.name])
                    mapping[reg.name] = tmp
                    temp_names.add(tmp.name)
                slot = layout.slot_of(reg.name)
                stores.append(
                    Instruction(
                        Opcode.ST,
                        dtype=slot.dtype,
                        srcs=(tmp,),
                        mem=MemRef(base_reg, slot.offset),
                        space=space,
                        guard=inst.guard,
                        guard_negated=inst.guard_negated,
                    )
                )
                num_stores += 1
        if mapping:
            inst = inst.rewrite_regs(
                lambda r: mapping.get(r.name, r) if r.name in mapping else r
            )
        new_body.extend(loads)
        new_body.append(inst)
        new_body.extend(stores)

    return SpillCodeResult(
        kernel=dataclasses.replace(
            kernel, arrays=kernel.arrays + (stack,), body=new_body
        ),
        layout=layout,
        base_reg=base_reg,
        temp_names=temp_names,
        num_loads=num_loads,
        num_stores=num_stores,
        num_address_insts=len(prelude),
        space=space,
        stack_name=stack_name,
        per_thread=per_thread_indexing,
        record_bytes=record_bytes,
    )
