"""Integration tests: the full pipeline across modules.

These exercise the same paths the benchmarks use, but on a trimmed
scale so they stay fast inside ``pytest tests/``.
"""

import numpy as np
import pytest

from repro import CRATOptimizer, FERMI, KEPLER
from repro.arch import compute_occupancy
from repro.bench import AppEvaluation, evaluate_app
from repro.ptx import DType
from repro.regalloc import allocate, register_demand
from repro.sim import GlobalMemory, run_grid
from repro.verify import verify_kernel
from repro.workloads import load_workload


@pytest.fixture(scope="module")
def hst_eval() -> AppEvaluation:
    return evaluate_app("HST")


class TestFullPipeline:
    def test_crat_beats_or_matches_baselines(self, hst_eval):
        assert hst_eval.speedup("crat") >= 1.0
        assert hst_eval.speedup("maxtlp") <= 1.02

    def test_crat_point_valid_occupancy(self, hst_eval):
        crat = hst_eval.crat
        alloc = crat.chosen.allocation
        occ = compute_occupancy(
            FERMI,
            alloc.reg_per_thread,
            crat.usage.shm_size + alloc.shm_spill_block_bytes,
            crat.usage.block_size,
        )
        assert occ.blocks >= crat.tlp

    def test_chosen_kernel_verifies(self, hst_eval):
        verify_kernel(hst_eval.crat.chosen.allocation.kernel)

    def test_crat_local_never_uses_shared_spills(self, hst_eval):
        assert hst_eval.crat_local.chosen.allocation.num_shared_insts == 0

    def test_memoized_driver_returns_same_object(self):
        assert evaluate_app("HST") is evaluate_app("HST")

    def test_energy_populated(self, hst_eval):
        assert hst_eval.energy_of("crat") > 0
        assert hst_eval.energy_of("opttlp") > 0


class TestCRATFunctionalCorrectness:
    """The optimized kernel must compute what the original computes."""

    @pytest.mark.parametrize("abbr", ["HST", "CFD"])
    def test_chosen_allocation_equivalent(self, abbr):
        workload = load_workload(abbr)
        optimizer = CRATOptimizer(FERMI)
        result = optimizer.optimize(
            workload.kernel,
            default_reg=workload.default_reg,
            grid_blocks=workload.grid_blocks,
            param_sizes=workload.param_sizes,
        )

        def run(kernel):
            mem = GlobalMemory(kernel, workload.param_sizes)
            run_grid(kernel, mem, grid_blocks=2)
            return mem.read_buffer("output", DType.F32, 128)

        ref = run(workload.kernel)
        got = run(result.chosen.allocation.kernel)
        assert np.allclose(ref, got, rtol=1e-4)


class TestKeplerPipeline:
    def test_kepler_run_completes(self):
        workload = load_workload("BLK")
        optimizer = CRATOptimizer(KEPLER)
        result = optimizer.optimize(
            workload.kernel,
            default_reg=workload.default_reg,
            grid_blocks=workload.grid_blocks,
            param_sizes=workload.param_sizes,
        )
        assert result.speedup_vs("opttlp") >= 0.95
        # Kepler's doubled register file can sustain more blocks at the
        # same register count.
        fermi_occ = compute_occupancy(FERMI, result.reg, 0, 128).blocks
        kepler_occ = compute_occupancy(KEPLER, result.reg, 0, 128).blocks
        assert kepler_occ >= fermi_occ


class TestTextualPipelineEntry:
    """PTX text in -> optimized PTX text out, like the paper's flow."""

    def test_parse_allocate_print(self):
        from repro.ptx import parse_kernel, print_kernel

        workload = load_workload("ESP")
        text = print_kernel(workload.kernel)
        kernel = parse_kernel(text)
        result = allocate(kernel, workload.default_reg, spare_shm_bytes=2048)
        out_text = print_kernel(result.kernel)
        assert "SpillStack" in out_text or result.num_local_insts == 0
        reparsed = parse_kernel(out_text)
        verify_kernel(reparsed)
        assert register_demand(kernel) == register_demand(workload.kernel)
