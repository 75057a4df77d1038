"""PTX-subset intermediate representation.

The typed IR that CRAT transforms: instruction/operand classes, kernel
containers, a fluent builder and a textual parser/printer pair that
round-trips.  The rules a well-formed kernel obeys live in
:mod:`repro.verify` (``DF*``).
"""

from .builder import KernelBuilder
from .instruction import (
    BodyItem,
    Imm,
    Instruction,
    Label,
    MemRef,
    Operand,
    Reg,
    Sreg,
    Sym,
    iter_instructions,
)
from .isa import (
    CmpOp,
    DType,
    LatencyClass,
    Opcode,
    RegClass,
    Space,
    SPECIAL_REGISTERS,
    latency_class,
)
from .module import ArrayDecl, Kernel, Module, Param, fresh_register_namer
from .parser import PTXParseError, parse_kernel, parse_module
from .printer import print_kernel, print_module

__all__ = [
    "ArrayDecl",
    "BodyItem",
    "CmpOp",
    "DType",
    "Imm",
    "Instruction",
    "Kernel",
    "KernelBuilder",
    "Label",
    "LatencyClass",
    "MemRef",
    "Module",
    "Opcode",
    "Operand",
    "PTXParseError",
    "Param",
    "Reg",
    "RegClass",
    "SPECIAL_REGISTERS",
    "Space",
    "Sreg",
    "Sym",
    "fresh_register_namer",
    "iter_instructions",
    "latency_class",
    "parse_kernel",
    "parse_module",
    "print_kernel",
    "print_module",
]
