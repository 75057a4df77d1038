"""Live-variable analysis tests."""

import pytest

from repro.cfg import CFG, LivenessInfo
from repro.cfg.loops import loop_depths
from repro.ptx import DType, RegClass, parse_kernel
from tests.conftest import (
    ANALYSIS_CORPUS,
    build_loop_kernel,
    build_pressure_kernel,
    corpus_kernel,
)

LISTING_3 = """
.entry kernel (.param .u64 output)
{
    mov.u32 %r0, %tid.x;
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mul.lo.u32 %r1, %r1, %r2;
    add.u32 %r0, %r0, %r1;
    exit;
}
"""


class TestPaperListing3:
    """Paper Listing 3: with register reuse only 3 registers are needed."""

    def test_peak_pressure_is_three(self):
        kernel = parse_kernel(LISTING_3)
        info = LivenessInfo(kernel)
        assert info.max_pressure(RegClass.R32) == 3

    def test_r2_dies_at_mul(self):
        kernel = parse_kernel(LISTING_3)
        info = LivenessInfo(kernel)
        # After the mul (position 3), %r2 is dead.
        assert "%r2" not in info.live_out[3]
        assert "%r2" in info.live_out[2]

    def test_nothing_live_at_exit(self):
        kernel = parse_kernel(LISTING_3)
        info = LivenessInfo(kernel)
        assert info.live_out[len(kernel.instructions()) - 1] == frozenset()


class TestLoopLiveness:
    def test_accumulators_live_across_loop(self):
        kernel = build_loop_kernel(nvars=4)
        info = LivenessInfo(kernel)
        cfg = info.cfg
        # Find the loop-header block; accumulators must be live into it.
        header = cfg.blocks[1]
        first_pos = header.start
        f32_live = {
            n for n in info.live_in[first_pos]
            if info.dtype_of[n].reg_class is RegClass.F32
        }
        assert len(f32_live) >= 4

    def test_loop_counter_live_through_body(self):
        kernel = build_loop_kernel()
        info = LivenessInfo(kernel)
        counter_candidates = [
            n for n, rng in info.ranges.items()
            if info.dtype_of[n] is DType.S32 and rng.defs >= 2
        ]
        assert counter_candidates  # the i += 1 register
        name = counter_candidates[0]
        rng = info.ranges[name]
        assert rng.length > 3

    def test_use_counts(self):
        kernel = build_loop_kernel(nvars=2)
        info = LivenessInfo(kernel)
        # Every range has at least one def.
        for name, rng in info.ranges.items():
            assert rng.defs >= 1, name

    def test_loop_weights_exceed_straightline(self):
        kernel = build_loop_kernel(nvars=2)
        info = LivenessInfo(kernel)
        in_loop = max(rng.weight for rng in info.ranges.values())
        assert in_loop >= 10  # at least one range touched inside the loop


class TestPressure:
    def test_pressure_scales_with_variables(self):
        small = LivenessInfo(build_pressure_kernel(nvars=6)).max_pressure()
        large = LivenessInfo(build_pressure_kernel(nvars=18)).max_pressure()
        assert large > small

    def test_pressure_counts_slots(self):
        kernel = build_pressure_kernel(nvars=8)
        info = LivenessInfo(kernel)
        # u64 address registers weigh 2 slots, so total > f32 count.
        assert info.max_pressure() > info.max_pressure(RegClass.F32)

    def test_class_filter(self):
        kernel = build_pressure_kernel(nvars=8)
        info = LivenessInfo(kernel)
        assert info.max_pressure(RegClass.F32) >= 8
        assert info.max_pressure(RegClass.PRED) >= 1


class TestInvariants:
    @pytest.mark.parametrize("builder", [build_loop_kernel, build_pressure_kernel])
    def test_every_use_is_live_in(self, builder):
        kernel = builder()
        info = LivenessInfo(kernel)
        for pos, inst in enumerate(info.instructions):
            for reg in inst.uses():
                assert reg.name in info.live_in[pos], (pos, reg.name)

    @pytest.mark.parametrize("builder", [build_loop_kernel, build_pressure_kernel])
    def test_live_out_is_successor_live_in(self, builder):
        kernel = builder()
        info = LivenessInfo(kernel)
        cfg = info.cfg
        for block in cfg.blocks:
            if not block.instructions:
                continue
            last = block.start + len(block.instructions) - 1
            expected = frozenset()
            for succ in block.successors:
                expected |= info.live_in[cfg.blocks[succ].start]
            assert info.live_out[last] == expected

    def test_range_spans_all_uses(self):
        kernel = build_loop_kernel()
        info = LivenessInfo(kernel)
        for pos, inst in enumerate(info.instructions):
            for reg in inst.regs():
                rng = info.ranges[reg.name]
                assert rng.start <= pos <= rng.end


def _successor_positions(cfg, block, pos):
    """Global positions control can reach right after ``pos``."""
    if pos < block.start + len(block.instructions) - 1:
        return [pos + 1]
    return [cfg.blocks[succ].start for succ in block.successors]


@pytest.mark.parametrize("name", ANALYSIS_CORPUS)
class TestDefinitions:
    """Every kernel of the corpus against the definitions, computed
    directly from the instructions rather than from another copy of
    the analysis."""

    def test_live_sets_solve_the_dataflow_equations(self, name):
        info = LivenessInfo(corpus_kernel(name))
        for block in info.cfg.blocks:
            for pos, inst in block.positions():
                assert info.instructions[pos] is inst
                expected_out = frozenset().union(*(
                    info.live_in[succ]
                    for succ in _successor_positions(info.cfg, block, pos)
                ))
                assert info.live_out[pos] == expected_out, pos
                defs = {reg.name for reg in inst.defs()}
                uses = {reg.name for reg in inst.uses()}
                assert info.live_in[pos] == (info.live_out[pos] - defs) | uses

    def test_ranges_match_their_definition(self, name):
        kernel = corpus_kernel(name)
        info = LivenessInfo(kernel)
        depths = loop_depths(info.cfg)
        depth_at = {
            pos: depths[block.index]
            for block in info.cfg.blocks
            for pos, _ in block.positions()
        }
        alive_at = {}
        uses, defs, weight, first_dtype = {}, {}, {}, {}
        for pos, inst in enumerate(kernel.instructions()):
            touched = set()
            for reg in inst.regs():  # defs, then uses
                first_dtype.setdefault(reg.name, reg.dtype)
                touched.add(reg.name)
            for reg in inst.uses():
                uses[reg.name] = uses.get(reg.name, 0) + 1
            for reg in inst.defs():
                defs[reg.name] = defs.get(reg.name, 0) + 1
            for reg in inst.regs():
                weight[reg.name] = weight.get(reg.name, 0) + 10 ** depth_at[pos]
            for alive in (touched, info.live_in[pos], info.live_out[pos]):
                for reg_name in alive:
                    alive_at.setdefault(reg_name, []).append(pos)

        assert set(info.ranges) == set(first_dtype)
        assert set(alive_at) == set(first_dtype)
        for reg_name, rng in info.ranges.items():
            assert rng.name == reg_name
            assert (rng.start, rng.end) == (
                min(alive_at[reg_name]), max(alive_at[reg_name])
            ), reg_name
            assert rng.uses == uses.get(reg_name, 0), reg_name
            assert rng.defs == defs.get(reg_name, 0), reg_name
            assert rng.weight == weight[reg_name], reg_name
            assert rng.dtype is first_dtype[reg_name], reg_name
            assert info.dtype_of[reg_name] is first_dtype[reg_name]


def test_ranges_are_summarized_on_first_read():
    info = LivenessInfo(build_loop_kernel())
    assert info._ranges is None
    assert info.ranges is info.ranges
