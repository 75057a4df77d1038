"""Spill-stack layout and spill-code insertion tests."""

import pytest

from repro.cfg import LivenessInfo
from repro.ptx import DType, Opcode, Space
from repro.regalloc import (
    SPILL_STACK_NAME,
    insert_spill_code,
    layout_stack,
)
from repro.verify import verify_kernel
from tests.conftest import build_loop_kernel, build_pressure_kernel


class TestLayout:
    def test_offsets_are_aligned(self):
        layout = layout_stack(
            [("a", DType.F32), ("b", DType.F64), ("c", DType.S32), ("d", DType.U64)]
        )
        for slot in layout.slots:
            assert slot.offset % slot.dtype.bytes == 0

    def test_no_overlap(self):
        layout = layout_stack(
            [(f"v{i}", DType.F64 if i % 2 else DType.F32) for i in range(10)]
        )
        spans = sorted((s.offset, s.offset + s.bytes) for s in layout.slots)
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_total_bytes_covers_slots(self):
        layout = layout_stack([("a", DType.F64), ("b", DType.F32)])
        last = max(layout.slots, key=lambda s: s.offset)
        assert layout.total_bytes >= last.offset + last.bytes

    def test_widest_first_packing(self):
        layout = layout_stack([("n", DType.S32), ("w", DType.F64)])
        assert layout.slot_of("w").offset == 0

    def test_slot_lookup_missing(self):
        layout = layout_stack([("a", DType.F32)])
        with pytest.raises(KeyError):
            layout.slot_of("zzz")


class TestInsertSpillCode:
    def _spill_some(self, kernel, count=3):
        info = LivenessInfo(kernel)
        f32 = sorted(
            n for n, d in info.dtype_of.items() if d is DType.F32
        )[:count]
        return insert_spill_code(kernel, {n: DType.F32 for n in f32})

    def test_empty_spill_is_identity(self):
        kernel = build_loop_kernel()
        result = insert_spill_code(kernel, {})
        assert result.num_loads == 0
        assert result.num_stores == 0
        assert len(result.kernel.instructions()) == len(kernel.instructions())

    def test_stack_declared(self):
        kernel = build_pressure_kernel()
        result = self._spill_some(kernel)
        decl = result.kernel.find_array(SPILL_STACK_NAME)
        assert decl is not None
        assert decl.space is Space.LOCAL
        assert decl.size_bytes == result.layout.total_bytes

    def test_each_use_preceded_by_load(self):
        kernel = build_pressure_kernel()
        result = self._spill_some(kernel)
        body = result.kernel.instructions()
        spilled_offsets = {s.offset for s in result.layout.slots}
        loads = [
            i
            for i in body
            if i.opcode is Opcode.LD
            and i.space is Space.LOCAL
            and i.mem.offset in spilled_offsets
        ]
        assert len(loads) == result.num_loads
        assert result.num_loads > 0

    def test_defs_followed_by_store(self):
        kernel = build_pressure_kernel()
        result = self._spill_some(kernel)
        assert result.num_stores > 0
        stores = [
            i
            for i in result.kernel.instructions()
            if i.opcode is Opcode.ST and i.space is Space.LOCAL
        ]
        assert len(stores) == result.num_stores

    def test_spilled_names_gone_from_kernel(self):
        kernel = build_pressure_kernel()
        result = self._spill_some(kernel)
        remaining = {r.name for r in result.kernel.registers()}
        for slot in result.layout.slots:
            assert slot.name not in remaining

    def test_output_verifies(self):
        kernel = build_pressure_kernel()
        result = self._spill_some(kernel, count=5)
        verify_kernel(result.kernel)

    def test_base_register_is_temp(self):
        kernel = build_pressure_kernel()
        result = self._spill_some(kernel)
        assert result.base_reg is not None
        assert result.base_reg.name in result.temp_names
        assert result.base_reg.dtype is DType.U64

    def test_original_not_mutated(self):
        kernel = build_pressure_kernel()
        before = len(kernel.instructions())
        self._spill_some(kernel)
        assert len(kernel.instructions()) == before


class TestSharedSpill:
    def test_per_thread_indexing_sizes_array_by_block(self):
        kernel = build_pressure_kernel()
        info = LivenessInfo(kernel)
        name = sorted(n for n, d in info.dtype_of.items() if d is DType.F32)[0]
        result = insert_spill_code(
            kernel,
            {name: DType.F32},
            space=Space.SHARED,
            stack_name="ShmSpill",
            per_thread_indexing=True,
        )
        decl = result.kernel.find_array("ShmSpill")
        assert decl.space is Space.SHARED
        assert decl.size_bytes == result.layout.total_bytes * kernel.block_size

    def test_per_thread_prelude_counted_as_others(self):
        kernel = build_pressure_kernel()
        info = LivenessInfo(kernel)
        name = sorted(n for n, d in info.dtype_of.items() if d is DType.F32)[0]
        result = insert_spill_code(
            kernel,
            {name: DType.F32},
            space=Space.SHARED,
            per_thread_indexing=True,
        )
        assert result.num_address_insts == 4  # tid read, cvt, mov base, mad

    def test_local_per_thread_indexing_rejected(self):
        kernel = build_pressure_kernel()
        with pytest.raises(ValueError):
            insert_spill_code(
                kernel, {"%f0": DType.F32}, space=Space.LOCAL,
                per_thread_indexing=True,
            )

    def test_global_space_rejected(self):
        kernel = build_pressure_kernel()
        with pytest.raises(ValueError):
            insert_spill_code(kernel, {"%f0": DType.F32}, space=Space.GLOBAL)
