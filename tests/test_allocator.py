"""End-to-end register allocator tests (graph coloring facade)."""

import numpy as np
import pytest

from repro.ptx import DType, RegClass, Space
from repro.regalloc import (
    InsufficientRegistersError,
    allocate,
    allocate_linear_scan,
    register_demand,
)
from repro.sim import GlobalMemory, run_grid
from repro.verify import verify_kernel
from tests.conftest import build_loop_kernel, build_pressure_kernel, build_tid_kernel

PARAM_SIZES = {"input": 1 << 16, "output": 1 << 16}


def run_functional(kernel, count=64):
    mem = GlobalMemory(kernel, PARAM_SIZES)
    run_grid(kernel, mem, grid_blocks=2)
    return mem.read_buffer("output", DType.F32, count)


class TestBasicAllocation:
    def test_no_spill_at_demand(self, pressure_kernel):
        demand = register_demand(pressure_kernel)
        result = allocate(pressure_kernel, demand)
        assert not result.has_spills
        assert result.reg_per_thread == demand

    def test_respects_limit(self, pressure_kernel):
        demand = register_demand(pressure_kernel)
        for limit in (demand, demand - 3, demand // 2, 14):
            result = allocate(pressure_kernel, limit)
            assert result.reg_per_thread <= limit

    def test_spills_grow_as_limit_shrinks(self, pressure_kernel):
        demand = register_demand(pressure_kernel)
        spill_counts = [
            len(allocate(pressure_kernel, limit, remat=False).spilled)
            for limit in (demand, demand - 4, demand - 8, demand - 12)
        ]
        assert spill_counts == sorted(spill_counts)
        assert spill_counts[0] == 0

    def test_invalid_limit(self, pressure_kernel):
        with pytest.raises(ValueError):
            allocate(pressure_kernel, 0)

    def test_absurdly_small_limit_raises(self, pressure_kernel):
        with pytest.raises(InsufficientRegistersError):
            allocate(pressure_kernel, 3)

    def test_output_verifies(self, pressure_kernel):
        demand = register_demand(pressure_kernel)
        result = allocate(pressure_kernel, demand // 2)
        verify_kernel(result.kernel)

    def test_one_reg_object_per_register(self):
        # A parsed kernel holds one Reg object per operand; the rename
        # leaves one per distinct (name, dtype), in either allocator.
        from repro.ptx import parse_kernel, print_kernel

        kernel = parse_kernel(print_kernel(build_pressure_kernel()))
        limit = register_demand(kernel) // 2
        for result in (
            allocate(kernel, limit, spare_shm_bytes=4096),
            allocate_linear_scan(kernel, limit),
        ):
            assert result.has_spills
            objects = {
                id(reg): reg
                for inst in result.kernel.instructions()
                for reg in inst.regs()
            }.values()
            assert len(objects) == len({(r.name, r.dtype) for r in objects})

    def test_renamed_registers_use_physical_names(self, loop_kernel):
        result = allocate(loop_kernel, register_demand(loop_kernel))
        names = {r.name for r in result.kernel.registers()}
        # Physical names are dense from 0 per class prefix.
        f32 = sorted(
            int(n[2:]) for n in names if n.startswith("%f") and not n.startswith("%fd")
        )
        assert f32 == list(range(len(f32)))


class TestFunctionalEquivalence:
    """The paper's Section 5.2 consistency check, done bit-exactly."""

    @pytest.mark.parametrize("fraction", [1.0, 0.8, 0.6, 0.45])
    def test_pressure_kernel(self, fraction):
        kernel = build_pressure_kernel()
        ref = run_functional(kernel)
        limit = max(12, int(register_demand(kernel) * fraction))
        result = allocate(kernel, limit)
        got = run_functional(result.kernel)
        assert np.allclose(ref, got, rtol=1e-5)

    def test_with_shared_spilling(self):
        kernel = build_pressure_kernel()
        ref = run_functional(kernel)
        limit = register_demand(kernel) // 2
        result = allocate(kernel, limit, spare_shm_bytes=4096)
        assert result.num_shared_insts > 0
        got = run_functional(result.kernel)
        assert np.allclose(ref, got, rtol=1e-5)

    def test_tid_kernel_trivial(self):
        kernel = build_tid_kernel()
        result = allocate(kernel, register_demand(kernel))
        mem1 = GlobalMemory(kernel, {"output": 1 << 12})
        run_grid(kernel, mem1, 2)
        mem2 = GlobalMemory(result.kernel, {"output": 1 << 12})
        run_grid(result.kernel, mem2, 2)
        a = mem1.read_buffer("output", DType.U32, 256)
        b = mem2.read_buffer("output", DType.U32, 256)
        assert np.array_equal(a, b)


class TestSharedSpilling:
    def test_disabled_by_flag(self, pressure_kernel):
        limit = register_demand(pressure_kernel) // 2
        result = allocate(
            pressure_kernel, limit, spare_shm_bytes=4096, enable_shm_spill=False
        )
        assert result.num_shared_insts == 0
        assert result.shm_plan is None

    def test_zero_budget_means_local_only(self, pressure_kernel):
        limit = register_demand(pressure_kernel) // 2
        result = allocate(pressure_kernel, limit, spare_shm_bytes=0)
        assert result.num_shared_insts == 0

    def test_budget_respected(self, pressure_kernel):
        limit = register_demand(pressure_kernel) // 2
        result = allocate(pressure_kernel, limit, spare_shm_bytes=2048)
        assert result.shm_spill_block_bytes <= 2048

    def test_shm_reduces_local_insts(self, pressure_kernel):
        limit = register_demand(pressure_kernel) // 2
        local_only = allocate(pressure_kernel, limit, enable_shm_spill=False)
        with_shm = allocate(pressure_kernel, limit, spare_shm_bytes=1 << 16)
        assert with_shm.num_local_insts < local_only.num_local_insts


class TestLinearScan:
    def test_respects_limit(self, pressure_kernel):
        demand = register_demand(pressure_kernel)
        for limit in (demand, demand - 4, demand // 2):
            result = allocate_linear_scan(pressure_kernel, limit)
            assert result.reg_per_thread <= limit

    def test_functional_equivalence(self):
        kernel = build_pressure_kernel()
        ref = run_functional(kernel)
        result = allocate_linear_scan(kernel, register_demand(kernel) - 6)
        got = run_functional(result.kernel)
        assert np.allclose(ref, got, rtol=1e-5)

    def test_spills_at_least_as_much_as_coloring(self, pressure_kernel):
        # Linear scan is the weaker allocator: never fewer spill insts.
        limit = register_demand(pressure_kernel) - 6
        coloring = allocate(pressure_kernel, limit, remat=False)
        scan = allocate_linear_scan(pressure_kernel, limit)
        assert scan.num_local_insts >= coloring.num_local_insts


class TestRematerialization:
    def _const_heavy_kernel(self):
        from repro.ptx import KernelBuilder

        b = KernelBuilder("consts", block_size=64)
        out = b.param("output", DType.U64)
        tid = b.special("%tid.x")
        t64 = b.cvt(tid, DType.U64)
        off = b.mul(t64, b.imm(4, DType.U64), DType.U64)
        consts = [b.mov(b.imm(0.5 + j, DType.F32)) for j in range(16)]
        vals = [
            b.ld(Space.GLOBAL, b.add(b.addr_of(out), off, DType.U64), offset=4 * j,
                 dtype=DType.F32)
            for j in range(4)
        ]
        total = vals[0]
        for v in vals[1:]:
            total = b.add(total, v)
        for c in consts:
            total = b.add(total, c)
        oaddr = b.add(b.addr_of(out), off, DType.U64)
        b.st(Space.GLOBAL, oaddr, total)
        return b.build()

    def test_constants_remat_not_spilled(self):
        kernel = self._const_heavy_kernel()
        demand = register_demand(kernel)
        result = allocate(kernel, demand - 8, remat=True)
        assert result.num_remat_insts > 0
        assert result.num_local_insts == 0  # all victims were constants

    def test_remat_disabled_spills_instead(self):
        kernel = self._const_heavy_kernel()
        demand = register_demand(kernel)
        result = allocate(kernel, demand - 8, remat=False)
        assert result.num_remat_insts == 0
        assert result.num_local_insts > 0

    def test_remat_preserves_semantics(self):
        kernel = self._const_heavy_kernel()
        ref = run_functional(kernel, count=32)
        result = allocate(kernel, register_demand(kernel) - 8, remat=True)
        got = run_functional(result.kernel, count=32)
        assert np.allclose(ref, got, rtol=1e-5)
