"""Fluent builder for constructing PTX-subset kernels programmatically.

The synthetic workload generator (``repro.workloads.generator``) and the
test suite construct kernels through this builder rather than writing
textual PTX by hand.  The builder hands out fresh SSA-style virtual
registers — PTX before register allocation "assumes an infinite register
set, each time a new variable is generated, it is assigned to a new
register" (paper Section 5.1).
"""

from __future__ import annotations

from typing import List, Optional, Union

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
from .isa import CmpOp, DType, Opcode, Space
from .module import ArrayDecl, Kernel, Param

_CLASS_PREFIX = {
    "r32": "%r",
    "r64": "%rd",
    "f32": "%f",
    "f64": "%fd",
    "pred": "%p",
}


class KernelBuilder:
    """Builds a :class:`Kernel` one instruction at a time.

    Example::

        b = KernelBuilder("kernel", block_size=256)
        out = b.param("output", DType.U64)
        tid = b.special("%tid.x")
        ctaid = b.special("%ctaid.x")
        ntid = b.special("%ntid.x")
        base = b.mad(ctaid, ntid, tid)
        ...
        kernel = b.build()
    """

    def __init__(self, name: str, block_size: int = 256):
        self._name = name
        self._block_size = block_size
        self._params: List[Param] = []
        self._arrays: List[ArrayDecl] = []
        self._body: List[BodyItem] = []
        self._counters = {key: 0 for key in _CLASS_PREFIX}
        self._label_counter = 0
        self._built = False

    # ------------------------------------------------------------------
    # Declarations.
    # ------------------------------------------------------------------
    def param(self, name: str, dtype: DType = DType.U64) -> Sym:
        """Declare a kernel parameter and return a symbol referencing it."""
        self._params.append(Param(name, dtype))
        return Sym(name)

    def local_array(self, name: str, size_bytes: int, align: int = 4) -> Sym:
        self._arrays.append(ArrayDecl(name, Space.LOCAL, size_bytes, align))
        return Sym(name)

    def shared_array(self, name: str, size_bytes: int, align: int = 4) -> Sym:
        self._arrays.append(ArrayDecl(name, Space.SHARED, size_bytes, align))
        return Sym(name)

    # ------------------------------------------------------------------
    # Fresh registers and labels.
    # ------------------------------------------------------------------
    def fresh(self, dtype: DType) -> Reg:
        """A fresh virtual register of the given type."""
        key = (
            "pred"
            if dtype is DType.PRED
            else dtype.reg_class.value.replace("rd", "r64").replace("fd", "f64")
        )
        if key == "r":
            key = "r32"
        elif key == "f":
            key = "f32"
        prefix = _CLASS_PREFIX[key]
        reg = Reg(f"{prefix}{self._counters[key]}", dtype)
        self._counters[key] += 1
        return reg

    def label(self, hint: str = "L") -> Label:
        """A fresh label (not yet placed; call :meth:`place`)."""
        lbl = Label(f"${hint}{self._label_counter}")
        self._label_counter += 1
        return lbl

    def place(self, label: Label) -> None:
        """Place a label at the current point in the body."""
        self._body.append(label)

    # ------------------------------------------------------------------
    # Generic emission.
    # ------------------------------------------------------------------
    def emit(self, inst: Instruction) -> Optional[Reg]:
        self._body.append(inst)
        return inst.dst

    def _binary(
        self,
        opcode: Opcode,
        a: Operand,
        b: Operand,
        dtype: Optional[DType] = None,
        guard: Optional[Reg] = None,
        guard_negated: bool = False,
        dst: Optional[Reg] = None,
    ) -> Reg:
        dtype = dtype or _infer_dtype(a, b)
        if dst is None:
            dst = self.fresh(dtype)
        self.emit(
            Instruction(
                opcode,
                dtype=dtype,
                dst=dst,
                srcs=(a, b),
                guard=guard,
                guard_negated=guard_negated,
            )
        )
        return dst

    def _unary(
        self,
        opcode: Opcode,
        a: Operand,
        dtype: Optional[DType] = None,
        dst: Optional[Reg] = None,
    ) -> Reg:
        dtype = dtype or _infer_dtype(a)
        if dst is None:
            dst = self.fresh(dtype)
        self.emit(Instruction(opcode, dtype=dtype, dst=dst, srcs=(a,)))
        return dst

    # ------------------------------------------------------------------
    # Arithmetic / logic.
    # ------------------------------------------------------------------
    def mov(self, src: Operand, dtype: Optional[DType] = None) -> Reg:
        dtype = dtype or _infer_dtype(src)
        dst = self.fresh(dtype)
        self.emit(Instruction(Opcode.MOV, dtype=dtype, dst=dst, srcs=(src,)))
        return dst

    def mov_to(self, dst: Reg, src: Operand) -> Reg:
        """Move into an *existing* register (non-SSA write, e.g. loop update)."""
        self.emit(Instruction(Opcode.MOV, dtype=dst.dtype, dst=dst, srcs=(src,)))
        return dst

    def special(self, name: str, dtype: DType = DType.U32) -> Reg:
        """Read a special register into a fresh register (paper Listing 2)."""
        return self.mov(Sreg(name), dtype)

    def addr_of(self, sym: Sym) -> Reg:
        """Materialize the 64-bit base address of a declared array/param."""
        return self.mov(sym, DType.U64)

    def add(self, a, b, dtype=None, **kw) -> Reg:
        return self._binary(Opcode.ADD, a, b, dtype, **kw)

    def sub(self, a, b, dtype=None, **kw) -> Reg:
        return self._binary(Opcode.SUB, a, b, dtype, **kw)

    def mul(self, a, b, dtype=None, **kw) -> Reg:
        return self._binary(Opcode.MUL, a, b, dtype, **kw)

    def div(self, a, b, dtype=None, **kw) -> Reg:
        return self._binary(Opcode.DIV, a, b, dtype, **kw)

    def rem(self, a, b, dtype=None, **kw) -> Reg:
        return self._binary(Opcode.REM, a, b, dtype, **kw)

    def and_(self, a, b, dtype=None, **kw) -> Reg:
        return self._binary(Opcode.AND, a, b, dtype, **kw)

    def or_(self, a, b, dtype=None, **kw) -> Reg:
        return self._binary(Opcode.OR, a, b, dtype, **kw)

    def xor(self, a, b, dtype=None, **kw) -> Reg:
        return self._binary(Opcode.XOR, a, b, dtype, **kw)

    def shl(self, a, b, dtype=None, **kw) -> Reg:
        return self._binary(Opcode.SHL, a, b, dtype, **kw)

    def shr(self, a, b, dtype=None, **kw) -> Reg:
        return self._binary(Opcode.SHR, a, b, dtype, **kw)

    def min(self, a, b, dtype=None, **kw) -> Reg:
        return self._binary(Opcode.MIN, a, b, dtype, **kw)

    def max(self, a, b, dtype=None, **kw) -> Reg:
        return self._binary(Opcode.MAX, a, b, dtype, **kw)

    def neg(self, a, dtype=None, dst=None) -> Reg:
        return self._unary(Opcode.NEG, a, dtype, dst)

    def abs(self, a, dtype=None, dst=None) -> Reg:
        return self._unary(Opcode.ABS, a, dtype, dst)

    def lg2(self, a, dtype=None, dst=None) -> Reg:
        return self._unary(Opcode.LG2, a, dtype, dst)

    def ex2(self, a, dtype=None, dst=None) -> Reg:
        return self._unary(Opcode.EX2, a, dtype, dst)

    def sqrt(self, a, dtype=None, dst=None) -> Reg:
        return self._unary(Opcode.SQRT, a, dtype, dst)

    def rsqrt(self, a, dtype=None, dst=None) -> Reg:
        return self._unary(Opcode.RSQRT, a, dtype, dst)

    def rcp(self, a, dtype=None, dst=None) -> Reg:
        return self._unary(Opcode.RCP, a, dtype, dst)

    def sin(self, a, dtype=None, dst=None) -> Reg:
        return self._unary(Opcode.SIN, a, dtype, dst)

    def cos(self, a, dtype=None, dst=None) -> Reg:
        return self._unary(Opcode.COS, a, dtype, dst)

    def mad(self, a, b, c, dtype=None, dst: Optional[Reg] = None) -> Reg:
        """``dst = a * b + c`` (paper Listing 2 computes tid this way)."""
        dtype = dtype or _infer_dtype(a, b, c)
        if dst is None:
            dst = self.fresh(dtype)
        opcode = Opcode.FMA if dtype.is_float else Opcode.MAD
        self.emit(Instruction(opcode, dtype=dtype, dst=dst, srcs=(a, b, c)))
        return dst

    def cvt(self, src: Operand, to_dtype: DType) -> Reg:
        dst = self.fresh(to_dtype)
        self.emit(Instruction(Opcode.CVT, dtype=to_dtype, dst=dst, srcs=(src,)))
        return dst

    def imm(self, value: Union[int, float], dtype: DType = DType.S32) -> Imm:
        return Imm(value, dtype)

    # ------------------------------------------------------------------
    # Predicates and control flow.
    # ------------------------------------------------------------------
    def setp(self, cmp: CmpOp, a: Operand, b: Operand, dtype=None) -> Reg:
        dtype = dtype or _infer_dtype(a, b)
        dst = self.fresh(DType.PRED)
        self.emit(
            Instruction(Opcode.SETP, dtype=dtype, dst=dst, srcs=(a, b), cmp=cmp)
        )
        return dst

    def selp(self, a: Operand, b: Operand, pred: Reg, dtype=None) -> Reg:
        dtype = dtype or _infer_dtype(a, b)
        dst = self.fresh(dtype)
        self.emit(Instruction(Opcode.SELP, dtype=dtype, dst=dst, srcs=(a, b, pred)))
        return dst

    def bra(self, label: Label, guard: Optional[Reg] = None, negated: bool = False):
        self.emit(
            Instruction(
                Opcode.BRA, target=label.name, guard=guard, guard_negated=negated
            )
        )

    def bar(self) -> None:
        self.emit(Instruction(Opcode.BAR))

    def ret(self) -> None:
        self.emit(Instruction(Opcode.RET))

    # ------------------------------------------------------------------
    # Memory.
    # ------------------------------------------------------------------
    def ld(
        self,
        space: Space,
        base: Union[Reg, Sym],
        offset: int = 0,
        dtype: DType = DType.F32,
        guard: Optional[Reg] = None,
    ) -> Reg:
        dst = self.fresh(dtype)
        self.emit(
            Instruction(
                Opcode.LD,
                dtype=dtype,
                dst=dst,
                mem=MemRef(base, offset),
                space=space,
                guard=guard,
            )
        )
        return dst

    def st(
        self,
        space: Space,
        base: Union[Reg, Sym],
        value: Operand,
        offset: int = 0,
        dtype: Optional[DType] = None,
        guard: Optional[Reg] = None,
    ) -> None:
        dtype = dtype or _infer_dtype(value)
        self.emit(
            Instruction(
                Opcode.ST,
                dtype=dtype,
                srcs=(value,),
                mem=MemRef(base, offset),
                space=space,
                guard=guard,
            )
        )

    # ------------------------------------------------------------------
    # Finalization.
    # ------------------------------------------------------------------
    def build(self) -> Kernel:
        """Finalize and return the kernel (appends ``exit`` if missing)."""
        if self._built:
            raise RuntimeError("build() called twice")
        body = self._body
        if not body or not (
            isinstance(body[-1], Instruction) and body[-1].is_terminator
        ):
            self.emit(Instruction(Opcode.EXIT))
        kernel = Kernel(
            self._name, self._params, self._arrays, body, self._block_size
        )
        kernel.validate_targets()
        self._built = True
        return kernel


def _infer_dtype(*operands: Operand) -> DType:
    """Infer an instruction dtype from the first typed operand."""
    for op in operands:
        if isinstance(op, (Reg, Imm)):
            return op.dtype
    raise ValueError("cannot infer dtype: no typed operand; pass dtype explicitly")
