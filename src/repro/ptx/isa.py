"""Instruction-set definitions for the PTX-subset IR.

The paper's CRAT framework operates on NVIDIA PTX, the virtual ISA that
CUDA compiles to.  This module defines the typed subset of PTX that the
rest of the repository manipulates: scalar data types, state spaces
(register / global / local / shared / param), opcodes, comparison
operators, and the latency class each opcode belongs to.

Only the features the paper exercises are modeled: integer and floating
point arithmetic, type conversion, predication, loads/stores to every
state space, uniform branches, and barriers.  This is the IR surface
needed for liveness analysis, graph-coloring register allocation, spill
code insertion (paper Listing 4) and shared-memory spill rewriting
(paper Algorithm 1).
"""

from __future__ import annotations

import enum


class _Enum(enum.Enum):
    """An enum whose members hash by identity, in C.

    ``Enum.__hash__`` hashes the member's name in Python, and every
    :class:`~repro.ptx.instruction.Reg` or instruction hash hashes its
    enums.  Members are singletons that compare by identity and
    unpickle to themselves, so identity is a hash consistent with
    equality.
    """

    __hash__ = object.__hash__


#: Number of 32-bit register-file slots one register of each class
#: uses, by :class:`RegClass` value.
_CLASS_SLOTS = {"r": 1, "rd": 2, "f": 1, "fd": 2, "p": 0}


class RegClass(_Enum):
    """Register classes used by the allocator.

    PTX registers are typed; per paper Section 5.2 a register freed by a
    dead variable can only be reassigned to a variable of a compatible
    type, which is one source of register waste.  We model five classes.
    A 64-bit register costs two 32-bit register slots against the
    per-thread register budget; predicates live in a separate predicate
    file and do not count against it (as on real hardware).
    """

    R32 = "r"
    R64 = "rd"
    F32 = "f"
    F64 = "fd"
    PRED = "p"

    def __init__(self, value: str) -> None:
        #: Number of 32-bit register-file slots one register of this
        #: class uses.
        self.slots: int = _CLASS_SLOTS[value]


#: Width in bits and register-class value of every :class:`DType`, by
#: type value.  Liveness, interference and pressure read these per
#: register, so members carry them as plain attributes.
_DTYPE_TABLE = {
    "u8": (8, "r"),
    "u16": (16, "r"),
    "u32": (32, "r"),
    "u64": (64, "rd"),
    "s8": (8, "r"),
    "s16": (16, "r"),
    "s32": (32, "r"),
    "s64": (64, "rd"),
    "f32": (32, "f"),
    "f64": (64, "fd"),
    "b8": (8, "r"),
    "b16": (16, "r"),
    "b32": (32, "r"),
    "b64": (64, "rd"),
    "pred": (1, "p"),
}


class DType(_Enum):
    """PTX scalar data types (paper Section 5.2: PTX is type-sensitive)."""

    U8 = "u8"
    U16 = "u16"
    U32 = "u32"
    U64 = "u64"
    S8 = "s8"
    S16 = "s16"
    S32 = "s32"
    S64 = "s64"
    F32 = "f32"
    F64 = "f64"
    B8 = "b8"
    B16 = "b16"
    B32 = "b32"
    B64 = "b64"
    PRED = "pred"

    def __init__(self, value: str) -> None:
        bits, reg_class = _DTYPE_TABLE[value]
        #: Width of the type in bits (predicates are 1 bit).
        self.bits: int = bits
        #: The register class a value of this type occupies.
        self.reg_class: RegClass = RegClass(reg_class)
        #: Whether the type is a floating-point type (``f32``, ``f64``).
        self.is_float: bool = reg_class in ("f", "fd")

    @property
    def bytes(self) -> int:
        """Width of the type in bytes (predicates occupy one byte when spilled)."""
        return max(1, self.bits // 8)

    @property
    def is_signed(self) -> bool:
        return self.value[0] == "s"


class Space(_Enum):
    """PTX state spaces relevant to spilling and simulation."""

    REG = "reg"
    PARAM = "param"
    GLOBAL = "global"
    LOCAL = "local"
    SHARED = "shared"
    CONST = "const"

    @property
    def is_memory(self) -> bool:
        return self is not Space.REG


class Opcode(_Enum):
    """The PTX-subset opcodes."""

    # Data movement.
    MOV = "mov"
    CVT = "cvt"
    LD = "ld"
    ST = "st"
    # Integer / float arithmetic.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    MAD = "mad"
    DIV = "div"
    REM = "rem"
    MIN = "min"
    MAX = "max"
    NEG = "neg"
    ABS = "abs"
    FMA = "fma"
    # Bitwise / shifts.
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    # Special function unit.
    SQRT = "sqrt"
    RSQRT = "rsqrt"
    SIN = "sin"
    COS = "cos"
    LG2 = "lg2"
    EX2 = "ex2"
    RCP = "rcp"
    # Predicates / select.
    SETP = "setp"
    SELP = "selp"
    # Control flow.
    BRA = "bra"
    BAR = "bar"
    RET = "ret"
    EXIT = "exit"


class CmpOp(_Enum):
    """Comparison operators for ``setp``."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"


class LatencyClass(_Enum):
    """Functional-unit latency classes used by the timing model.

    Memory opcode classes are resolved per state space at issue time;
    MEM here is the placeholder class for ld/st before space resolution.
    """

    ALU = "alu"
    SFU = "sfu"
    MEM = "mem"
    CTRL = "ctrl"
    BARRIER = "barrier"


_SFU_OPS = frozenset(
    {
        Opcode.SQRT,
        Opcode.RSQRT,
        Opcode.SIN,
        Opcode.COS,
        Opcode.LG2,
        Opcode.EX2,
        Opcode.RCP,
        Opcode.DIV,
        Opcode.REM,
    }
)

_CTRL_OPS = frozenset({Opcode.BRA, Opcode.RET, Opcode.EXIT})


def latency_class(opcode: Opcode) -> LatencyClass:
    """Map an opcode to its functional-unit latency class."""
    if opcode in (Opcode.LD, Opcode.ST):
        return LatencyClass.MEM
    if opcode is Opcode.BAR:
        return LatencyClass.BARRIER
    if opcode in _CTRL_OPS:
        return LatencyClass.CTRL
    if opcode in _SFU_OPS:
        return LatencyClass.SFU
    return LatencyClass.ALU


#: Special registers readable via ``mov`` (paper Listing 2).
SPECIAL_REGISTERS = (
    "%tid.x",
    "%tid.y",
    "%ctaid.x",
    "%ctaid.y",
    "%ntid.x",
    "%ntid.y",
    "%nctaid.x",
    "%nctaid.y",
    "%laneid",
    "%warpid",
)

#: Opcodes whose first operand is *not* a destination register.
NO_DST_OPS = frozenset({Opcode.ST, Opcode.BRA, Opcode.BAR, Opcode.RET, Opcode.EXIT})

#: Arity of source operands per opcode (destination excluded); ``None``
#: means variable / special-cased in the instruction constructor.
SRC_ARITY = {
    Opcode.MOV: 1,
    Opcode.CVT: 1,
    Opcode.LD: 1,
    Opcode.ST: 2,
    Opcode.ADD: 2,
    Opcode.SUB: 2,
    Opcode.MUL: 2,
    Opcode.MAD: 3,
    Opcode.FMA: 3,
    Opcode.DIV: 2,
    Opcode.REM: 2,
    Opcode.MIN: 2,
    Opcode.MAX: 2,
    Opcode.NEG: 1,
    Opcode.ABS: 1,
    Opcode.AND: 2,
    Opcode.OR: 2,
    Opcode.XOR: 2,
    Opcode.NOT: 1,
    Opcode.SHL: 2,
    Opcode.SHR: 2,
    Opcode.SQRT: 1,
    Opcode.RSQRT: 1,
    Opcode.SIN: 1,
    Opcode.COS: 1,
    Opcode.LG2: 1,
    Opcode.EX2: 1,
    Opcode.RCP: 1,
    Opcode.SETP: 2,
    Opcode.SELP: 3,
    Opcode.BRA: 0,
    Opcode.BAR: 0,
    Opcode.RET: 0,
    Opcode.EXIT: 0,
}
