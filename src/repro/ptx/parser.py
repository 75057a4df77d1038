"""Parser for the textual PTX subset.

Parses the output of :mod:`repro.ptx.printer` (and hand-written kernels
in the same dialect, e.g. the paper's Listings 2-4).  The grammar is
line-oriented:

* ``.entry NAME (.param .u64 p0, ...)`` opens a kernel,
* ``.maxntid N, 1, 1`` records the block size,
* ``.local/.shared .align A .b8 NAME[SIZE];`` declares an array,
* ``LABEL:`` places a label,
* everything else is one instruction terminated by ``;``.

The parser raises :class:`PTXParseError` with a line number on malformed
input.
"""

from __future__ import annotations

import dataclasses
import re
from typing import List, Optional, Tuple

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
)
from .isa import CmpOp, DType, NO_DST_OPS, Opcode, SPECIAL_REGISTERS, Space
from .module import ArrayDecl, Kernel, Module, Param


class PTXParseError(ValueError):
    """Malformed PTX-subset text."""

    def __init__(self, message: str, lineno: Optional[int] = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


_ENTRY_RE = re.compile(r"^\.entry\s+(\w+)\s*\((.*)\)$")
_PARAM_RE = re.compile(r"^\.param\s+\.(\w+)\s+(\w+)$")
_MAXNTID_RE = re.compile(r"^\.maxntid\s+(\d+)\s*(?:,\s*\d+\s*)*$")
_ARRAY_RE = re.compile(
    r"^\.(local|shared)\s+\.align\s+(\d+)\s+\.b8\s+(\w+)\[(\d+)\];$"
)
_LABEL_RE = re.compile(r"^(\$?\w+):$")
_MEMREF_RE = re.compile(r"^\[([%$\w.]+)(?:\+(\d+))?\]$")

_SPACE_NAMES = {s.value for s in Space}
_CMP_NAMES = {c.value for c in CmpOp}
_DTYPE_NAMES = {d.value for d in DType}
_IGNORED_MODIFIERS = {"lo", "wide", "rn", "rz", "approx", "ftz", "sync", "uni"}
_CACHE_OPS = {"ca", "cg"}


def parse_module(text: str) -> Module:
    """Parse PTX-subset text into a :class:`Module`."""
    module = Module()
    # The open kernel's header; its arrays, body and block size are
    # collected here and set once, at its closing brace.
    kernel: Optional[Kernel] = None
    arrays: List[ArrayDecl] = []
    body: List[BodyItem] = []
    block_size = 0
    in_body = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//")[0].strip()
        if not line:
            continue
        if line.startswith(".entry"):
            if kernel is not None:
                raise PTXParseError("nested .entry", lineno)
            kernel = _parse_entry(line, lineno)
            arrays, body, block_size = [], [], kernel.block_size
            in_body = False
            continue
        if kernel is None:
            raise PTXParseError(f"statement outside kernel: {line!r}", lineno)
        if line == "{":
            in_body = True
            continue
        if line == "}":
            kernel = dataclasses.replace(
                kernel, arrays=arrays, body=body, block_size=block_size
            )
            kernel.validate_targets()
            module.kernels.append(kernel)
            kernel = None
            continue
        match = _MAXNTID_RE.match(line)
        if match:
            block_size = int(match.group(1))
            continue
        match = _ARRAY_RE.match(line)
        if match:
            space, align, name, size = match.groups()
            arrays.append(ArrayDecl(name, Space(space), int(size), int(align)))
            continue
        match = _LABEL_RE.match(line)
        if match:
            body.append(Label(match.group(1)))
            continue
        if not in_body:
            raise PTXParseError(f"unexpected statement in header: {line!r}", lineno)
        body.append(_parse_instruction(line, lineno))
    if kernel is not None:
        raise PTXParseError("unterminated kernel (missing '}')")
    return module


def parse_kernel(text: str) -> Kernel:
    """Parse text containing exactly one kernel."""
    module = parse_module(text)
    if len(module.kernels) != 1:
        raise PTXParseError(f"expected exactly 1 kernel, found {len(module.kernels)}")
    return module.kernels[0]


# ----------------------------------------------------------------------
# Internals.
# ----------------------------------------------------------------------
def _parse_entry(line: str, lineno: int) -> Kernel:
    match = _ENTRY_RE.match(line)
    if not match:
        raise PTXParseError(f"malformed .entry: {line!r}", lineno)
    name, params_text = match.groups()
    params: List[Param] = []
    params_text = params_text.strip()
    if params_text:
        for chunk in params_text.split(","):
            pmatch = _PARAM_RE.match(chunk.strip())
            if not pmatch:
                raise PTXParseError(f"malformed param: {chunk.strip()!r}", lineno)
            dtype_name, pname = pmatch.groups()
            params.append(Param(pname, DType(dtype_name)))
    return Kernel(name=name, params=params)


def _split_mnemonic(
    mnemonic: str, lineno: int
) -> Tuple[Opcode, Optional[DType], Optional[Space], Optional[CmpOp], str]:
    parts = mnemonic.split(".")
    try:
        opcode = Opcode(parts[0])
    except ValueError:
        raise PTXParseError(f"unknown opcode {parts[0]!r}", lineno) from None
    dtype: Optional[DType] = None
    space: Optional[Space] = None
    cmp: Optional[CmpOp] = None
    cache_op = "ca"
    for part in parts[1:]:
        if part in _DTYPE_NAMES:
            dtype = DType(part)
        elif part in _SPACE_NAMES:
            space = Space(part)
        elif part in _CMP_NAMES:
            cmp = CmpOp(part)
        elif part in _CACHE_OPS:
            cache_op = part
        elif part in _IGNORED_MODIFIERS:
            continue
        else:
            raise PTXParseError(f"unknown modifier {part!r} in {mnemonic!r}", lineno)
    return opcode, dtype, space, cmp, cache_op


def _parse_operand(text: str, dtype: Optional[DType], lineno: int) -> Operand:
    text = text.strip()
    if text in SPECIAL_REGISTERS:
        return Sreg(text)
    if text.startswith("%"):
        return Reg(text, _reg_dtype(text, dtype))
    if re.match(r"^-?\d+$", text):
        return Imm(int(text), dtype or DType.S32)
    if re.match(r"^-?\d*\.\d+(e-?\d+)?$", text) or re.match(
        r"^-?\d+\.\d*(e-?\d+)?$", text
    ):
        return Imm(float(text), dtype or DType.F32)
    if re.match(r"^\w+$", text):
        return Sym(text)
    raise PTXParseError(f"cannot parse operand {text!r}", lineno)


def _reg_dtype(name: str, inst_dtype: Optional[DType]) -> DType:
    """Infer a register's type from its name prefix and instruction type.

    The printer does not annotate register declarations, so the parser
    recovers types from the PTX naming convention: ``%p*`` predicates,
    ``%rd*`` 64-bit, ``%fd*`` f64, ``%f*`` f32, ``%r*`` 32-bit int.  The
    instruction dtype refines signedness/width for int registers.
    """
    base = name[1:]
    if base.startswith("p"):
        return DType.PRED
    if base.startswith("fd"):
        return DType.F64
    if base.startswith("rd"):
        if inst_dtype is not None and inst_dtype.bits == 64:
            return inst_dtype
        return DType.U64
    if base.startswith("f"):
        return DType.F32
    if inst_dtype is not None and not inst_dtype.is_float and inst_dtype.bits == 32:
        return inst_dtype
    return DType.U32


def _split_operands(text: str) -> List[str]:
    """Split an operand list on commas not inside brackets."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        out.append(tail)
    return out


def _parse_memref(text: str, lineno: int) -> MemRef:
    match = _MEMREF_RE.match(text.strip())
    if not match:
        raise PTXParseError(f"malformed memory reference {text!r}", lineno)
    base_text, offset_text = match.groups()
    offset = int(offset_text) if offset_text else 0
    if base_text.startswith("%"):
        return MemRef(Reg(base_text, _reg_dtype(base_text, DType.U64)), offset)
    return MemRef(Sym(base_text), offset)


def _parse_instruction(line: str, lineno: int) -> Instruction:
    if not line.endswith(";"):
        raise PTXParseError(f"missing ';' on {line!r}", lineno)
    line = line[:-1].strip()

    guard: Optional[Reg] = None
    guard_negated = False
    if line.startswith("@"):
        guard_text, line = line.split(None, 1)
        guard_text = guard_text[1:]
        if guard_text.startswith("!"):
            guard_negated = True
            guard_text = guard_text[1:]
        # Typed by name like any register, so a non-predicate guard
        # reaches the DF rules as DF007, not as a class pun.
        guard = Reg(guard_text, _reg_dtype(guard_text, None))

    if " " in line:
        mnemonic, operand_text = line.split(None, 1)
    else:
        mnemonic, operand_text = line, ""
    opcode, dtype, space, cmp, cache_op = _split_mnemonic(mnemonic, lineno)
    operands = _split_operands(operand_text) if operand_text else []

    if opcode is Opcode.BRA:
        if len(operands) != 1:
            raise PTXParseError("bra takes exactly one label", lineno)
        return Instruction(
            Opcode.BRA, target=operands[0], guard=guard, guard_negated=guard_negated
        )
    if opcode in (Opcode.BAR, Opcode.RET, Opcode.EXIT):
        return Instruction(opcode, guard=guard, guard_negated=guard_negated)
    if opcode is Opcode.LD:
        if len(operands) != 2 or space is None:
            raise PTXParseError(f"malformed ld: {line!r}", lineno)
        dst = _parse_operand(operands[0], dtype, lineno)
        if not isinstance(dst, Reg):
            raise PTXParseError("ld destination must be a register", lineno)
        return Instruction(
            Opcode.LD,
            dtype=dtype,
            dst=dst,
            mem=_parse_memref(operands[1], lineno),
            space=space,
            guard=guard,
            guard_negated=guard_negated,
            cache_op=cache_op,
        )
    if opcode is Opcode.ST:
        if len(operands) != 2 or space is None:
            raise PTXParseError(f"malformed st: {line!r}", lineno)
        value = _parse_operand(operands[1], dtype, lineno)
        return Instruction(
            Opcode.ST,
            dtype=dtype,
            srcs=(value,),
            mem=_parse_memref(operands[0], lineno),
            space=space,
            guard=guard,
            guard_negated=guard_negated,
        )

    if opcode in NO_DST_OPS:  # pragma: no cover - handled above
        raise PTXParseError(f"unhandled no-dst opcode {opcode}", lineno)
    if not operands:
        raise PTXParseError(f"{opcode.value} requires operands", lineno)
    dst = _parse_operand(operands[0], dtype, lineno)
    if not isinstance(dst, Reg):
        raise PTXParseError(
            f"{opcode.value} destination must be a register, got {operands[0]!r}",
            lineno,
        )
    if opcode is Opcode.SETP:
        dst = Reg(dst.name, DType.PRED)
    if opcode is Opcode.CVT and dtype is not None:
        dst = Reg(dst.name, _reg_dtype(dst.name, dtype))
    srcs = tuple(_parse_operand(op, dtype, lineno) for op in operands[1:])
    if opcode is Opcode.SELP and srcs and isinstance(srcs[-1], Reg):
        srcs = srcs[:-1] + (Reg(srcs[-1].name, DType.PRED),)
    return Instruction(
        opcode,
        dtype=dtype,
        dst=dst,
        srcs=srcs,
        cmp=cmp,
        guard=guard,
        guard_negated=guard_negated,
    )
