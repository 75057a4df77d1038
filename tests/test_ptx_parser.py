"""Parser/printer tests, including round-trips on the paper's listings."""

import pytest

from repro.ptx import (
    DType,
    Imm,
    Opcode,
    PTXParseError,
    Reg,
    Space,
    Sym,
    parse_kernel,
    parse_module,
    print_kernel,
)
from repro.verify import verify_kernel

# Paper Listing 2: the native PTX kernel.
LISTING_2 = """
.entry kernel (.param .u64 output)
{
    mov.u32 %r0, %tid.x;
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mul.lo.u32 %r3, %r2, %r1;
    add.u32 %r4, %r0, %r3;
    exit;
}
"""

# Paper Listing 4: the kernel with spill code.
LISTING_4 = """
.entry kernel (.param .u64 output)
{
    .local .align 4 .b8 SpillStack[4];
    mov.u32 %r0, %tid.x;
    mov.u32 %r1, %ctaid.x;
    mov.u64 %rd0, SpillStack;
    st.local.u32 [%rd0], %r0;
    mov.u32 %r0, %ntid.x;
    mul.lo.u32 %r1, %r1, %r0;
    ld.local.u32 %r1, [%rd0];
    add.u32 %r0, %r0, %r1;
    exit;
}
"""


class TestPaperListings:
    def test_listing2_parses(self):
        kernel = parse_kernel(LISTING_2)
        assert kernel.name == "kernel"
        assert len(kernel.instructions()) == 6
        assert kernel.register_count() == 5  # %r0..%r4

    def test_listing4_spill_stack(self):
        kernel = parse_kernel(LISTING_4)
        decl = kernel.find_array("SpillStack")
        assert decl is not None
        assert decl.space is Space.LOCAL
        assert decl.size_bytes == 4
        spills = [i for i in kernel.instructions() if i.space is Space.LOCAL]
        assert len(spills) == 2  # one st.local + one ld.local

    def test_listing4_uses_three_regs_plus_address(self):
        kernel = parse_kernel(LISTING_4)
        names = {r.name for r in kernel.registers()}
        assert names == {"%r0", "%r1", "%rd0"}


class TestRoundTrip:
    def test_tid_kernel_roundtrip(self, tid_kernel):
        text = print_kernel(tid_kernel)
        again = parse_kernel(text)
        assert print_kernel(again) == text

    def test_loop_kernel_roundtrip(self, loop_kernel):
        text = print_kernel(loop_kernel)
        again = parse_kernel(text)
        assert print_kernel(again) == text
        verify_kernel(again)

    def test_roundtrip_preserves_block_size(self, tid_kernel):
        again = parse_kernel(print_kernel(tid_kernel))
        assert again.block_size == tid_kernel.block_size

    def test_roundtrip_preserves_instruction_count(self, pressure_kernel):
        again = parse_kernel(print_kernel(pressure_kernel))
        assert len(again.instructions()) == len(pressure_kernel.instructions())


class TestOperandParsing:
    def test_immediate_int(self):
        kernel = parse_kernel(
            ".entry k ()\n{\n    mov.s32 %r0, -42;\n    exit;\n}"
        )
        imm = kernel.instructions()[0].srcs[0]
        assert isinstance(imm, Imm)
        assert imm.value == -42

    def test_immediate_float(self):
        kernel = parse_kernel(
            ".entry k ()\n{\n    mov.f32 %f0, 0.5;\n    exit;\n}"
        )
        imm = kernel.instructions()[0].srcs[0]
        assert isinstance(imm, Imm)
        assert imm.value == pytest.approx(0.5)

    def test_special_register(self):
        kernel = parse_kernel(
            ".entry k ()\n{\n    mov.u32 %r0, %tid.x;\n    exit;\n}"
        )
        from repro.ptx import Sreg

        assert isinstance(kernel.instructions()[0].srcs[0], Sreg)

    def test_symbol_operand(self):
        kernel = parse_kernel(
            ".entry k ()\n{\n"
            "    .shared .align 4 .b8 tile[64];\n"
            "    mov.u64 %rd0, tile;\n    exit;\n}"
        )
        assert isinstance(kernel.instructions()[0].srcs[0], Sym)

    def test_memref_with_offset(self):
        kernel = parse_kernel(
            ".entry k ()\n{\n"
            "    mov.u64 %rd0, 0;\n"
            "    ld.global.f32 %f0, [%rd0+16];\n    exit;\n}"
        )
        ld = kernel.instructions()[1]
        assert ld.mem.offset == 16
        assert isinstance(ld.mem.base, Reg)

    def test_register_class_inference(self):
        kernel = parse_kernel(
            ".entry k ()\n{\n"
            "    mov.f64 %fd0, 1.0;\n"
            "    mov.u64 %rd0, 1;\n"
            "    mov.f32 %f0, 1.0;\n    exit;\n}"
        )
        insts = kernel.instructions()
        assert insts[0].dst.dtype is DType.F64
        assert insts[1].dst.dtype is DType.U64
        assert insts[2].dst.dtype is DType.F32


class TestErrors:
    def test_unknown_opcode(self):
        with pytest.raises(PTXParseError):
            parse_kernel(".entry k ()\n{\n    frob.u32 %r0, %r1;\n}")

    def test_missing_semicolon(self):
        with pytest.raises(PTXParseError):
            parse_kernel(".entry k ()\n{\n    mov.u32 %r0, 1\n}")

    def test_unterminated_kernel(self):
        with pytest.raises(PTXParseError):
            parse_kernel(".entry k ()\n{\n    mov.u32 %r0, 1;\n")

    def test_branch_to_missing_label(self):
        with pytest.raises(ValueError):
            parse_kernel(".entry k ()\n{\n    bra $nope;\n}")

    def test_statement_outside_kernel(self):
        with pytest.raises(PTXParseError):
            parse_module("mov.u32 %r0, 1;")

    def test_multiple_kernels_via_parse_kernel(self):
        two = (LISTING_2 + "\n" + LISTING_2).replace(
            ".entry kernel", ".entry k1", 1
        )
        with pytest.raises(PTXParseError):
            parse_kernel(two)


class TestModules:
    def test_module_with_two_kernels(self):
        text = LISTING_2 + LISTING_2.replace(".entry kernel", ".entry other")
        module = parse_module(text)
        assert len(module.kernels) == 2
        assert module.kernel("other").name == "other"
        with pytest.raises(KeyError):
            module.kernel("missing")

    def test_comments_are_stripped(self):
        kernel = parse_kernel(
            ".entry k ()\n{\n"
            "    // a comment line\n"
            "    mov.u32 %r0, 1; // trailing\n    exit;\n}"
        )
        assert len(kernel.instructions()) == 2
