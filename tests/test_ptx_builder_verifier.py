"""Builder and load-gate tests."""

import pytest

from repro.errors import EXIT_PARSE, ParseError
from repro.ptx import (
    CmpOp,
    DType,
    KernelBuilder,
    Opcode,
    Space,
)
from repro.verify import verify_kernel


def _rejects(kernel, code):
    """The DF load gate refuses ``kernel`` with exit 2, naming ``code``."""
    with pytest.raises(ParseError, match=code) as err:
        verify_kernel(kernel)
    assert err.value.exit_code == EXIT_PARSE
    assert err.value.stage == "parse"
    return err.value


class TestBuilder:
    def test_fresh_registers_unique(self):
        b = KernelBuilder("k")
        regs = {b.fresh(DType.F32).name for _ in range(50)}
        assert len(regs) == 50

    def test_fresh_classes_have_prefixes(self):
        b = KernelBuilder("k")
        assert b.fresh(DType.U32).name.startswith("%r")
        assert b.fresh(DType.U64).name.startswith("%rd")
        assert b.fresh(DType.F32).name.startswith("%f")
        assert b.fresh(DType.F64).name.startswith("%fd")
        assert b.fresh(DType.PRED).name.startswith("%p")

    def test_build_appends_exit(self):
        b = KernelBuilder("k")
        b.mov(b.imm(1, DType.S32))
        kernel = b.build()
        assert kernel.instructions()[-1].opcode is Opcode.EXIT

    def test_build_twice_raises(self):
        b = KernelBuilder("k")
        b.build()
        with pytest.raises(RuntimeError):
            b.build()

    def test_dst_kwarg_reuses_register(self):
        b = KernelBuilder("k")
        acc = b.mov(b.imm(0.0, DType.F32))
        out = b.add(acc, b.imm(1.0, DType.F32), dst=acc)
        assert out is acc
        kernel = b.build()
        assert kernel.register_count() == 1

    def test_labels_and_branches(self):
        b = KernelBuilder("k")
        i = b.mov(b.imm(0, DType.S32))
        loop = b.label("loop")
        done = b.label("done")
        b.place(loop)
        p = b.setp(CmpOp.GE, i, b.imm(3, DType.S32))
        b.bra(done, guard=p)
        b.add(i, b.imm(1, DType.S32), dst=i)
        b.bra(loop)
        b.place(done)
        kernel = b.build()
        assert set(kernel.labels()) == {loop.name, done.name}
        verify_kernel(kernel)

    def test_shared_array_declaration(self):
        b = KernelBuilder("k")
        sym = b.shared_array("tile", 256)
        addr = b.addr_of(sym)
        b.st(Space.SHARED, addr, b.imm(1.0, DType.F32), dtype=DType.F32)
        kernel = b.build()
        assert kernel.shared_bytes() == 256

    def test_dtype_inference_failure(self):
        b = KernelBuilder("k")
        from repro.ptx import Sym

        with pytest.raises(ValueError):
            b.add(Sym("a"), Sym("b"))


class TestVerifier:
    """:func:`repro.verify.verify_kernel`, the DF load gate."""

    def test_accepts_fixture_kernels(self, tid_kernel, loop_kernel, pressure_kernel):
        verify_kernel(tid_kernel)
        verify_kernel(loop_kernel)
        verify_kernel(pressure_kernel)

    def test_rejects_undefined_register_use(self):
        from repro.ptx import parse_kernel

        kernel = parse_kernel(
            ".entry k ()\n{\n    add.u32 %r0, %r1, %r2;\n    exit;\n}"
        )
        err = _rejects(kernel, "DF002")
        assert "never-defined register %r1" in str(err)

    def test_rejects_undeclared_symbol(self):
        from repro.ptx import parse_kernel

        kernel = parse_kernel(
            ".entry k ()\n{\n    mov.u64 %rd0, ghost;\n    exit;\n}"
        )
        err = _rejects(kernel, "DF008")
        assert "undeclared symbol ghost" in str(err)

    def test_rejects_type_mismatch(self):
        from repro.ptx import Instruction, Reg
        from repro.ptx.module import Kernel

        f = Reg("%f0", DType.F32)
        r = Reg("%r0", DType.U32)
        kernel = Kernel(name="k", body=[
            Instruction(Opcode.MOV, dtype=DType.F32, dst=f, srcs=(r,)),
            Instruction(
                Opcode.ADD, dtype=DType.F32, dst=f, srcs=(f, r)
            ),  # u32 source in f32 add
            Instruction(Opcode.EXIT),
        ])
        err = _rejects(kernel, "DF007")
        assert "incompatible" in str(err)

    def test_rejects_missing_terminator(self):
        from repro.ptx import Imm, Instruction, Reg
        from repro.ptx.module import Kernel

        kernel = Kernel(name="k", body=[
            Instruction(
                Opcode.MOV,
                dtype=DType.U32,
                dst=Reg("%r0", DType.U32),
                srcs=(Imm(1, DType.U32),),
            )
        ])
        err = _rejects(kernel, "DF004")
        assert "falls off the end" in str(err)

    def test_rejects_non_predicate_guard(self):
        from repro.ptx import Imm, Instruction, Reg
        from repro.ptx.module import Kernel

        r = Reg("%r0", DType.U32)
        kernel = Kernel(name="k", body=[
            Instruction(Opcode.MOV, dtype=DType.U32, dst=r, srcs=(Imm(1, DType.U32),)),
            Instruction(
                Opcode.MOV,
                dtype=DType.U32,
                dst=Reg("%r1", DType.U32),
                srcs=(Imm(2, DType.U32),),
                guard=r,
            ),
            Instruction(Opcode.EXIT),
        ])
        err = _rejects(kernel, "DF007")
        assert "not a predicate" in str(err)

    def test_rejects_non_predicate_guard_in_text(self, tmp_path, capsys):
        """The parser types a guard by its name like any register, so
        the text form reaches the gate as DF007, not as a DF005 pun."""
        from repro.cli import main
        from repro.ptx import parse_kernel

        text = (".entry k ()\n{\n    mov.u32 %r0, 1;\n"
                "    @%r0 mov.u32 %r1, 2;\n    exit;\n}\n")
        err = _rejects(parse_kernel(text), "DF007")
        assert "DF007 guard %r0 is not a predicate" in str(err)
        assert "DF005" not in str(err)
        path = tmp_path / "guard.ptx"
        path.write_text(text)
        assert main(["info", str(path)]) == EXIT_PARSE
        assert "DF007" in capsys.readouterr().err

    def test_error_lists_all_problems(self):
        from repro.ptx import parse_kernel

        kernel = parse_kernel(
            ".entry k ()\n{\n"
            "    add.u32 %r0, %r1, %r2;\n"
            "    add.u32 %r3, %r4, %r5;\n"
            "    exit;\n}"
        )
        err = _rejects(kernel, "DF002")
        for reg in ("%r1", "%r2", "%r4", "%r5"):
            assert f"DF002 use of never-defined register {reg}" in str(err)
