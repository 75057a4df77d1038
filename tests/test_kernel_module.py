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
    Module,
    Opcode,
    Reg,
    RegClass,
    Space,
    fresh_register_namer,
    parse_module,
    print_module,
)


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
        assert "_digest" not in vars(pickle.loads(pickle.dumps(kernel)))
        assert all(
            a is b for a, b in zip(first.instructions(), second.instructions())
        )

    def test_decode_keeps_immediates_exact(self):
        # 0.0 == -0.0 and 1 == True, but they print or compute apart.
        f, r = Reg("%f0", DType.F32), Reg("%r0", DType.S32)
        body = [
            Instruction(Opcode.MOV, dtype=dtype, dst=dst, srcs=(Imm(v, dtype),))
            for dst, dtype, v in (
                (f, DType.F32, 0.0), (f, DType.F32, -0.0),
                (r, DType.S32, 1), (r, DType.S32, True),
            )
        ]
        decoded = pickle.loads(pickle.dumps(body))
        assert [str(i) for i in decoded] == [str(i) for i in body]
        assert [type(i.srcs[0].value) for i in decoded] == [
            float, float, int, bool,
        ]
