"""Kernel/Module container tests."""

import dataclasses
import pickle

import pytest

from repro.ptx import (
    ArrayDecl,
    DType,
    Imm,
    Instruction,
    Kernel,
    KernelBuilder,
    MemRef,
    Module,
    Opcode,
    Reg,
    RegClass,
    Space,
    Sreg,
    Sym,
    fresh_register_namer,
    parse_module,
    print_module,
)
from tests.conftest import ANALYSIS_CORPUS, corpus_kernel


def small_kernel():
    b = KernelBuilder("k", block_size=64)
    b.param("output", DType.U64)
    b.shared_array("tile", 128)
    b.local_array("stack", 16)
    tid = b.special("%tid.x")
    f = b.cvt(tid, DType.F32)
    d = b.cvt(tid, DType.F64)
    p = b.setp(__import__("repro.ptx", fromlist=["CmpOp"]).CmpOp.EQ, tid,
               b.imm(0, DType.U32))
    b.selp(f, f, p)
    b.cvt(d, DType.F32)
    return b.build()


class TestKernelQueries:
    def test_register_count_by_class(self):
        kernel = small_kernel()
        assert kernel.register_count(RegClass.F64) == 1
        assert kernel.register_count(RegClass.PRED) == 1
        assert kernel.register_count() == len(kernel.registers())

    def test_register_slots_weighting(self):
        kernel = small_kernel()
        # f64 weighs 2 slots, predicates 0.
        slots = kernel.register_slots()
        count = kernel.register_count()
        preds = kernel.register_count(RegClass.PRED)
        wides = kernel.register_count(RegClass.F64) + kernel.register_count(
            RegClass.R64
        )
        assert slots == count - preds + wides

    def test_memory_totals(self):
        kernel = small_kernel()
        assert kernel.shared_bytes() == 128
        assert kernel.local_bytes() == 16

    def test_find_array(self):
        kernel = small_kernel()
        assert kernel.find_array("tile").space is Space.SHARED
        assert kernel.find_array("nope") is None

    def test_kernel_is_immutable(self):
        kernel = small_kernel()
        assert not hasattr(kernel, "copy")
        for field in ("body", "params", "arrays"):
            assert type(getattr(kernel, field)) is tuple, field
        with pytest.raises(dataclasses.FrozenInstanceError):
            kernel.block_size = 32
        with pytest.raises(dataclasses.FrozenInstanceError):
            kernel.body[0].dst = None
        with pytest.raises(AttributeError):
            kernel.body.append(kernel.body[0])
        # A pass builds a new kernel; the input keeps its body.
        longer = dataclasses.replace(kernel, body=[*kernel.body, kernel.body[0]])
        assert type(longer.body) is tuple
        assert len(longer.body) == len(kernel.body) + 1

    def test_fingerprint_prints_once_per_kernel(self, monkeypatch):
        import repro.ptx.printer as printer

        calls = []
        print_kernel = printer.print_kernel

        def counting(kernel):
            calls.append(kernel)
            return print_kernel(kernel)

        monkeypatch.setattr(printer, "print_kernel", counting)
        kernel = small_kernel()
        digest = kernel.fingerprint()
        assert kernel.fingerprint() == kernel.fingerprint() == digest
        assert calls == [kernel]
        wider = dataclasses.replace(kernel, block_size=128)
        assert wider.fingerprint() != digest
        assert len(calls) == 2
        # An equal kernel built apart prints for its own digest.
        assert small_kernel().fingerprint() == digest
        assert len(calls) == 3

    def test_array_decl_validation(self):
        with pytest.raises(ValueError):
            ArrayDecl("a", Space.GLOBAL, 16)
        with pytest.raises(ValueError):
            ArrayDecl("a", Space.LOCAL, 0)

    def test_fresh_register_namer_avoids_collisions(self):
        kernel = small_kernel()
        namer = fresh_register_namer(kernel, RegClass.R64, DType.U64)
        existing = {r.name for r in kernel.registers()}
        produced = {namer().name for _ in range(5)}
        assert not produced & existing
        assert len(produced) == 5


class TestModule:
    def test_print_parse_module_roundtrip(self):
        module = Module(kernels=[
            dataclasses.replace(small_kernel(), name="one"),
            dataclasses.replace(small_kernel(), name="two"),
        ])
        text = print_module(module)
        again = parse_module(text)
        assert [k.name for k in again.kernels] == ["one", "two"]
        assert print_module(again) == text


class TestPickle:
    def test_decode_shares_instructions_by_value(self):
        kernel = small_kernel()
        first, second = (pickle.loads(pickle.dumps(kernel)) for _ in range(2))
        assert first == kernel and str(first) == str(kernel)
        # What the kernel computed once stays out of its pickles.
        kernel.fingerprint(), kernel.instructions()
        assert set(vars(pickle.loads(pickle.dumps(kernel)))) == {
            field.name for field in dataclasses.fields(Kernel)
        }
        assert all(
            a is b for a, b in zip(first.instructions(), second.instructions())
        )

    def test_decode_keeps_immediates_exact(self):
        """``1 == 1.0 == True`` and ``0.0 == -0.0``, but each computes
        or prints apart, so each decodes to its own immediate, under an
        integer and a float type alike."""
        values = [1, 1.0, True, 0.0, -0.0]
        body = [
            Instruction(Opcode.MOV, dtype=dtype, dst=Reg(name, dtype),
                        srcs=(Imm(v, dtype),))
            for name, dtype in (("%r0", DType.S32), ("%f0", DType.F32))
            for v in values
        ]
        decoded = pickle.loads(pickle.dumps(body))
        assert [str(i) for i in decoded] == [str(i) for i in body]
        assert str(decoded[-1]) == "mov.f32 %f0, -0.0;"
        assert [repr(i.srcs[0].value) for i in decoded] == [
            repr(v) for v in values + values
        ]

    def test_decode_keys_keep_operand_kinds_of_one_name_apart(self):
        """A register, a symbol and a special register may share a name
        (and the text of an instruction that reads one), but never a
        decoded instruction: as a source or as a memory base."""
        reg, sym, sreg = Reg("tile", DType.U64), Sym("tile"), Sreg("tile")
        addr, value = Reg("%rd0", DType.U64), Reg("%r0", DType.U32)
        body = [
            Instruction(Opcode.MOV, dtype=DType.U64, dst=addr, srcs=(op,))
            for op in (reg, sym, sreg)
        ] + [
            Instruction(Opcode.LD, dtype=DType.U32, dst=value,
                        mem=MemRef(base, 4), space=Space.SHARED)
            for base in (reg, sym)
        ]
        assert len({str(i) for i in body[:3]}) == 1
        decoded = pickle.loads(pickle.dumps(body))
        assert decoded == body
        assert [type(i.srcs[0]) for i in decoded[:3]] == [Reg, Sym, Sreg]
        assert [type(i.mem.base) for i in decoded[3:]] == [Reg, Sym]
        assert [i.uses() for i in decoded] == [(reg,), (), (), (reg,), ()]


def _uses_from_fields(inst):
    used = [src for src in inst.srcs if isinstance(src, Reg)]
    if inst.mem is not None and isinstance(inst.mem.base, Reg):
        used.append(inst.mem.base)
    if inst.guard is not None:
        used.append(inst.guard)
    return tuple(used)


def assert_facts_follow_fields(kernel):
    """What a kernel and its instructions compute once (def/use tuples,
    printed text, the instruction sequence, register names) equals the
    same fact derived again from their fields."""
    body = [item for item in kernel.body if isinstance(item, Instruction)]
    assert kernel.instructions() == tuple(body)
    assert kernel.instructions() is kernel.instructions()
    names = set()
    for inst in body:
        defs = () if inst.dst is None else (inst.dst,)
        uses = _uses_from_fields(inst)
        assert (inst.defs(), inst.uses(), inst.regs()) == (
            defs, uses, defs + uses
        )
        # A copy from the same fields prints afresh.
        assert str(inst) == str(dataclasses.replace(inst)) == str(inst)
        names.update(reg.name for reg in defs + uses)
    assert kernel.register_names() == names
    assert names == {reg.name for reg in kernel.registers()}


class TestFieldFacts:
    @pytest.mark.parametrize("name", ANALYSIS_CORPUS)
    def test_corpus_facts_follow_fields(self, name):
        assert_facts_follow_fields(corpus_kernel(name))

    def test_decoded_memo_value_facts_follow_fields(self, tmp_path):
        """A memo value read back from disk: its interned instructions
        answer as their fields, and as the computed value's do."""
        from repro.engine import EvaluationEngine
        from repro.regalloc import allocate, register_demand

        from .conftest import build_pressure_kernel

        kernel = build_pressure_kernel()
        limit = register_demand(kernel) // 2
        key = ("allocate", kernel.fingerprint(), limit, 4096)
        computed = EvaluationEngine(disk_cache=str(tmp_path)).memo(
            key, lambda: allocate(kernel, limit, spare_shm_bytes=4096)
        )
        engine = EvaluationEngine(disk_cache=str(tmp_path))
        decoded = engine.memo(key, pytest.fail)
        assert engine.stats.memo_disk_hits == 1
        for got, want in ((decoded.kernel, computed.kernel),
                          (decoded.pre_rename_kernel,
                           computed.pre_rename_kernel)):
            assert got is not want
            assert_facts_follow_fields(got)
            assert str(got) == str(want)
            assert got.register_names() == want.register_names()
            assert [i.regs() for i in got.instructions()] == [
                i.regs() for i in want.instructions()
            ]
