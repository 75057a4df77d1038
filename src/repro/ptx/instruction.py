"""Instruction and operand classes for the PTX-subset IR.

An :class:`Instruction` is one typed PTX statement, e.g.::

    @%p1 mad.lo.s32 %r4, %r2, %r3, %r1;
    ld.global.f32 %f2, [%rd3+16];
    setp.lt.s32 %p1, %r4, %r5;

Operands are :class:`Reg` (virtual or allocated register), :class:`Imm`
(immediate), :class:`Sreg` (special register such as ``%tid.x``),
:class:`Sym` (address of a declared array, e.g. the spill stack of paper
Listing 4), and :class:`MemRef` (``[base+offset]`` addressing, used only
by ``ld``/``st``).

Every class here is a frozen dataclass: a rewrite builds a new
instruction (:meth:`Instruction.rewrite_regs`, ``dataclasses.replace``)
and never edits one in place, so kernels and memoised allocations can
share instructions freely.  For the same reason an instruction computes
the facts of its own fields once: its def and use tuples at
construction, its printed text on the first ``str()``.

Unpickling hash-conses :class:`Reg` and :class:`Instruction`: each
pickles as a key of plain values (names, enum values, exact immediates,
every operand tagged by its kind), and decoding looks that key up in a
table that holds the objects weakly, so the allocations the engine
reads back from its disk memo share one object per distinct register
and instruction.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Iterable, Optional, Tuple, Union

from .isa import CmpOp, DType, NO_DST_OPS, Opcode, Space, latency_class


@dataclasses.dataclass(frozen=True)
class Reg:
    """A (virtual or physical) register operand.

    Names follow the PTX convention of a class prefix plus an index
    (``%r12``, ``%rd3``, ``%f7``, ``%p1``), but any identifier is
    accepted; the register class is carried by ``dtype``.
    """

    name: str
    dtype: DType

    def __str__(self) -> str:
        return self.name

    def __reduce__(self):
        return _decoded_reg, (self.name, self.dtype.value)


@dataclasses.dataclass(frozen=True)
class Imm:
    """An immediate operand."""

    value: Union[int, float]
    dtype: DType

    def __str__(self) -> str:
        if self.dtype.is_float:
            return repr(float(self.value))
        return str(int(self.value))


@dataclasses.dataclass(frozen=True)
class Sreg:
    """A read-only special register (``%tid.x``, ``%ctaid.x``, ...)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclasses.dataclass(frozen=True)
class Sym:
    """The address of a declared array or kernel parameter.

    ``mov.u64 %rd0, SpillStack;`` materializes the base address of a
    local/shared array into an addressing register (paper Listing 4).
    """

    name: str

    def __str__(self) -> str:
        return self.name


Operand = Union[Reg, Imm, Sreg, Sym]


@dataclasses.dataclass(frozen=True)
class MemRef:
    """A ``[base+offset]`` memory reference for ``ld``/``st``."""

    base: Union[Reg, Sym]
    offset: int = 0

    def __str__(self) -> str:
        if self.offset:
            return f"[{self.base}+{self.offset}]"
        return f"[{self.base}]"


@dataclasses.dataclass(frozen=True)
class Label:
    """A branch target pseudo-item in a kernel body."""

    name: str

    def __str__(self) -> str:
        return f"{self.name}:"


@dataclasses.dataclass(frozen=True)
class Instruction:
    """One PTX-subset instruction.

    Attributes:
        opcode: The operation.
        dtype: The instruction type suffix (``add.s32`` -> ``S32``).
            ``None`` only for untyped control flow (``bra``/``bar``/...).
        dst: Destination register, or ``None`` for stores and control flow.
        srcs: Source operands in PTX order.
        mem: Memory reference for ``ld`` (source) / ``st`` (destination).
        space: State space for ``ld``/``st``.
        cmp: Comparison operator, only for ``setp``.
        guard: Predicate register guarding execution (``@%p``), or ``None``.
        guard_negated: Whether the guard is negated (``@!%p``).
        target: Branch target label name, only for ``bra``.
    """

    opcode: Opcode
    dtype: Optional[DType] = None
    dst: Optional[Reg] = None
    srcs: Tuple[Operand, ...] = ()
    mem: Optional[MemRef] = None
    space: Optional[Space] = None
    cmp: Optional[CmpOp] = None
    guard: Optional[Reg] = None
    guard_negated: bool = False
    target: Optional[str] = None
    #: Cache operator for global loads: "ca" (cache at all levels,
    #: default) or "cg" (bypass the L1, cache at L2) — PTX's ld.global.cg,
    #: the hook static cache-bypassing frameworks use.
    cache_op: str = "ca"

    def __post_init__(self) -> None:
        if self.dst is not None and self.opcode in NO_DST_OPS:
            raise ValueError(f"{self.opcode.value} takes no destination")
        if self.opcode is Opcode.SETP and self.cmp is None:
            raise ValueError("setp requires a comparison operator")
        if self.opcode in (Opcode.LD, Opcode.ST):
            if self.mem is None or self.space is None:
                raise ValueError(f"{self.opcode.value} requires mem and space")
        if self.opcode is Opcode.BRA and self.target is None:
            raise ValueError("bra requires a target label")
        # The def and use tuples, once: analyses ask at every visit.
        used = [src for src in self.srcs if isinstance(src, Reg)]
        if self.mem is not None and isinstance(self.mem.base, Reg):
            used.append(self.mem.base)
        if self.guard is not None:
            used.append(self.guard)
        object.__setattr__(
            self, "_defs", () if self.dst is None else (self.dst,)
        )
        object.__setattr__(self, "_uses", tuple(used))

    def __reduce__(self):
        return _decoded_instruction, ((
            self.opcode.value,
            None if self.dtype is None else self.dtype.value,
            None if self.dst is None else _operand_key(self.dst),
            tuple(map(_operand_key, self.srcs)),
            None if self.mem is None
            else (_operand_key(self.mem.base), self.mem.offset),
            None if self.space is None else self.space.value,
            None if self.cmp is None else self.cmp.value,
            None if self.guard is None else _operand_key(self.guard),
            self.guard_negated,
            self.target,
            self.cache_op,
        ),)

    # ------------------------------------------------------------------
    # Def/use views used by liveness analysis and the allocator.
    # ------------------------------------------------------------------
    def defs(self) -> Tuple[Reg, ...]:
        """Registers written by this instruction."""
        return self._defs

    def uses(self) -> Tuple[Reg, ...]:
        """Registers read by this instruction (guard included)."""
        return self._uses

    def regs(self) -> Tuple[Reg, ...]:
        """All registers referenced (defs then uses)."""
        return self._defs + self._uses

    @property
    def is_memory(self) -> bool:
        return self.opcode in (Opcode.LD, Opcode.ST)

    @property
    def is_branch(self) -> bool:
        return self.opcode is Opcode.BRA

    @property
    def is_terminator(self) -> bool:
        return self.opcode in (Opcode.BRA, Opcode.RET, Opcode.EXIT)

    @property
    def latency_class(self):
        return latency_class(self.opcode)

    # ------------------------------------------------------------------
    # Rewriting helpers (used by the allocator's renaming pass).
    # ------------------------------------------------------------------
    def rewrite_regs(self, mapping) -> "Instruction":
        """Return a copy with every register replaced via ``mapping``.

        ``mapping`` is a callable ``Reg -> Reg``; registers it returns
        unchanged are kept as-is.
        """
        new_srcs = tuple(
            mapping(src) if isinstance(src, Reg) else src for src in self.srcs
        )
        new_dst = mapping(self.dst) if self.dst is not None else None
        new_mem = self.mem
        if self.mem is not None and isinstance(self.mem.base, Reg):
            new_mem = MemRef(mapping(self.mem.base), self.mem.offset)
        new_guard = mapping(self.guard) if self.guard is not None else None
        return dataclasses.replace(
            self, dst=new_dst, srcs=new_srcs, mem=new_mem, guard=new_guard
        )

    # ------------------------------------------------------------------
    # Printing.
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:
            # First print: the text is a fact of the fields, kept.
            text = self._render()
            object.__setattr__(self, "_text", text)
            return text

    def _render(self) -> str:
        parts = []
        if self.guard is not None:
            bang = "!" if self.guard_negated else ""
            parts.append(f"@{bang}{self.guard}")
        mnemonic = self.opcode.value
        if self.opcode is Opcode.SETP:
            mnemonic += f".{self.cmp.value}"
        if self.opcode in (Opcode.LD, Opcode.ST):
            mnemonic += f".{self.space.value}"
            if self.cache_op != "ca":
                mnemonic += f".{self.cache_op}"
        if self.opcode in (Opcode.MUL, Opcode.MAD) and not (
            self.dtype and self.dtype.is_float
        ):
            mnemonic += ".lo"
        if self.dtype is not None:
            mnemonic += f".{self.dtype.value}"
        parts.append(mnemonic)

        operands = []
        if self.opcode is Opcode.ST:
            operands.append(str(self.mem))
            operands.extend(str(s) for s in self.srcs)
        elif self.opcode is Opcode.LD:
            operands.append(str(self.dst))
            operands.append(str(self.mem))
        elif self.opcode is Opcode.BRA:
            operands.append(self.target)
        elif self.opcode is Opcode.BAR:
            operands.append("0")
        else:
            if self.dst is not None:
                operands.append(str(self.dst))
            operands.extend(str(s) for s in self.srcs)
        if operands:
            return f"{' '.join(parts)} {', '.join(operands)};"
        return f"{' '.join(parts)};"


BodyItem = Union[Instruction, Label]


# ----------------------------------------------------------------------
# Hash-consing on unpickle, by plain-value keys.
# ----------------------------------------------------------------------
#: Enum members by value, to rebuild a decoded key's fields.
_DTYPES = {member.value: member for member in DType}
_OPCODES = {member.value: member for member in Opcode}
_SPACES = {member.value: member for member in Space}
_CMPS = {member.value: member for member in CmpOp}

#: One live object per distinct key among the registers and
#: instructions read back from pickles.  A key holds only strings,
#: numbers, ``None`` and tuples of them, so a lookup hashes in C.
#: Weak: an entry lives only as long as some kernel still holds its
#: object.
_REGS: "weakref.WeakValueDictionary[Tuple[str, str], Reg]" = (
    weakref.WeakValueDictionary()
)
_INSTRUCTIONS: "weakref.WeakValueDictionary[tuple, Instruction]" = (
    weakref.WeakValueDictionary()
)


def _operand_key(operand: Operand) -> tuple:
    """``operand`` as plain values, tagged by its kind, so a register, a
    symbol and a special register of one name stay apart.  Immediates
    compare equal across types and signs (``1 == 1.0 == True``,
    ``0.0 == -0.0``) but print or compute apart, so one is keyed by the
    type of its number and, for a float, by its exact bits."""
    if isinstance(operand, Reg):
        return ("reg", operand.name, operand.dtype.value)
    if isinstance(operand, Imm):
        value = operand.value
        if isinstance(value, float):
            return ("imm", operand.dtype.value, "float", value.hex())
        return ("imm", operand.dtype.value, type(value).__name__, value)
    if isinstance(operand, Sym):
        return ("sym", operand.name)
    if isinstance(operand, Sreg):
        return ("sreg", operand.name)
    raise TypeError(f"not an operand: {operand!r}")


def _operand(key: tuple) -> Operand:
    """The operand :func:`_operand_key` gave ``key``."""
    kind = key[0]
    if kind == "reg":
        return _decoded_reg(key[1], key[2])
    if kind == "imm":
        _, dtype, number, value = key
        if number == "float":
            value = float.fromhex(value)
        return Imm(value, _DTYPES[dtype])
    if kind == "sym":
        return Sym(key[1])
    return Sreg(key[1])


def _decoded_reg(name: str, dtype: str) -> Reg:
    key = (name, dtype)
    reg = _REGS.get(key)
    if reg is None:
        reg = _REGS.setdefault(key, Reg(name, _DTYPES[dtype]))
    return reg


def _decoded_instruction(key: tuple) -> Instruction:
    inst = _INSTRUCTIONS.get(key)
    if inst is None:
        (opcode, dtype, dst, srcs, mem, space, cmp, guard, guard_negated,
         target, cache_op) = key
        inst = _INSTRUCTIONS.setdefault(key, Instruction(
            _OPCODES[opcode],
            dtype=None if dtype is None else _DTYPES[dtype],
            dst=None if dst is None else _operand(dst),
            srcs=tuple(map(_operand, srcs)),
            mem=None if mem is None else MemRef(_operand(mem[0]), mem[1]),
            space=None if space is None else _SPACES[space],
            cmp=None if cmp is None else _CMPS[cmp],
            guard=None if guard is None else _operand(guard),
            guard_negated=guard_negated,
            target=target,
            cache_op=cache_op,
        ))
    return inst


def iter_instructions(body: Iterable[BodyItem]):
    """Yield only the :class:`Instruction` items of a kernel body."""
    for item in body:
        if isinstance(item, Instruction):
            yield item
