"""Rematerialization unit tests."""

import numpy as np
import pytest

from repro.arch import FERMI
from repro.core import collect_resource_usage
from repro.ir import run_pipeline
from repro.ptx import (
    DType,
    Imm,
    KernelBuilder,
    Opcode,
    Space,
    parse_kernel,
    print_kernel,
)
from repro.regalloc import allocate, remat_candidates, rematerialize
from repro.sim import GlobalMemory, run_grid
from repro.verify import verify_kernel
from repro.workloads import RESOURCE_SENSITIVE, load_workload


def const_kernel():
    b = KernelBuilder("consts", block_size=32)
    out = b.param("output", DType.U64)
    c1 = b.mov(b.imm(2.5, DType.F32))       # eligible
    c2 = b.mov(b.imm(7, DType.S32))          # eligible
    tid = b.special("%tid.x")                # NOT eligible (sreg mov)
    acc = b.mov(b.imm(0.0, DType.F32))       # redefined below: NOT eligible
    b.add(acc, c1, dst=acc)
    t_f = b.cvt(tid, DType.F32)
    total = b.add(acc, t_f)
    total = b.add(total, b.cvt(c2, DType.F32))
    total = b.add(total, c1)                 # c1 used twice
    t64 = b.cvt(tid, DType.U64)
    addr = b.mad(t64, b.imm(4, DType.U64), b.addr_of(out), dtype=DType.U64)
    b.st(Space.GLOBAL, addr, total)
    return b.build(), c1.name, c2.name, acc.name, tid.name


class TestCandidates:
    def test_single_mov_imm_eligible(self):
        kernel, c1, c2, acc, tid = const_kernel()
        names = {r.name for r in kernel.registers()}
        eligible = remat_candidates(kernel, names)
        assert c1 in eligible
        assert c2 in eligible
        assert isinstance(eligible[c1], Imm)

    def test_redefined_not_eligible(self):
        kernel, c1, c2, acc, tid = const_kernel()
        eligible = remat_candidates(kernel, {acc})
        assert acc not in eligible

    def test_sreg_mov_not_eligible(self):
        kernel, c1, c2, acc, tid = const_kernel()
        eligible = remat_candidates(kernel, {tid})
        assert tid not in eligible

    def test_restricted_to_requested_names(self):
        kernel, c1, c2, acc, tid = const_kernel()
        eligible = remat_candidates(kernel, {c2})
        assert set(eligible) == {c2}


class TestRewrite:
    def test_def_removed_and_uses_replaced(self):
        kernel, c1, c2, acc, tid = const_kernel()
        eligible = remat_candidates(kernel, {c1, c2})
        result = rematerialize(kernel, eligible)
        remaining = {r.name for r in result.kernel.registers()}
        assert c1 not in remaining
        assert c2 not in remaining
        verify_kernel(result.kernel)

    def test_one_mov_per_use(self):
        kernel, c1, c2, acc, tid = const_kernel()
        eligible = remat_candidates(kernel, {c1})
        result = rematerialize(kernel, eligible)
        # c1 had two uses -> two remat movs, minus its deleted def.
        assert result.num_remat_insts == 2
        delta = len(result.kernel.instructions()) - len(kernel.instructions())
        assert delta == 2 - 1

    def test_semantics_preserved(self):
        kernel, c1, c2, acc, tid = const_kernel()
        sizes = {"output": 4096}

        def run(k):
            mem = GlobalMemory(k, sizes)
            run_grid(k, mem, 1)
            return mem.read_buffer("output", DType.F32, 32)

        ref = run(kernel)
        eligible = remat_candidates(kernel, {c1, c2})
        result = rematerialize(kernel, eligible)
        assert np.allclose(ref, run(result.kernel))

    def test_empty_values_identity(self):
        kernel, *_ = const_kernel()
        result = rematerialize(kernel, {})
        assert result.num_remat_insts == 0
        assert len(result.kernel.instructions()) == len(kernel.instructions())

    def test_temps_marked(self):
        kernel, c1, c2, acc, tid = const_kernel()
        eligible = remat_candidates(kernel, {c1, c2})
        result = rematerialize(kernel, eligible)
        assert len(result.temp_names) == result.num_remat_insts

    def test_remat_mov_typed_like_definition(self):
        # ``cvt.f32 %f, %r`` prints no source type, so the parser types
        # a cvt source from the cvt (U32); the re-created mov must still
        # be ``mov.s32``, like the definition it replaces.
        kernel, c1, c2, acc, tid = const_kernel()
        twin = parse_kernel(print_kernel(kernel))
        result = rematerialize(twin, remat_candidates(twin, {c2}))
        movs = [
            inst for inst in result.kernel.instructions()
            if inst.opcode is Opcode.MOV and inst.dst.name in result.temp_names
        ]
        assert [inst.dtype for inst in movs] == [DType.S32]


class TestPrintedFormTwins:
    """Allocation, resource usage and passes are functions of the printed
    kernel: an app's generated kernel and its print -> parse twin share a
    fingerprint, so they must give the same answers (the engine's stage
    memo serves one to the other)."""

    @pytest.mark.parametrize("abbr", [app.abbr for app in RESOURCE_SENSITIVE])
    def test_twin_answers_identically(self, abbr):
        workload = load_workload(abbr)
        kernel = workload.kernel
        twin = parse_kernel(print_kernel(kernel))
        assert twin.fingerprint() == kernel.fingerprint()
        usage = collect_resource_usage(
            kernel, FERMI, default_reg=workload.default_reg
        )
        assert collect_resource_usage(
            twin, FERMI, default_reg=workload.default_reg
        ) == usage
        reg = usage.default_reg
        assert print_kernel(allocate(twin, reg).kernel) == print_kernel(
            allocate(kernel, reg).kernel
        )
        passes = "copy-prop,dce,minreg-sched"
        assert print_kernel(run_pipeline(twin, passes).kernel) == print_kernel(
            run_pipeline(kernel, passes).kernel
        )
