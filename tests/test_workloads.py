"""Workload suite tests (Table 3 substrate)."""

import numpy as np
import pytest

from repro.arch import FERMI
from repro.core import collect_resource_usage
from repro.ptx import DType, Space
from repro.regalloc import register_demand
from repro.sim import GlobalMemory, run_grid
from repro.verify import verify_kernel
from repro.workloads import (
    ALL_APPS,
    RESOURCE_INSENSITIVE,
    RESOURCE_SENSITIVE,
    full_suite,
    generate_kernel,
    get_app,
    inputs_for,
    load_workload,
    param_sizes,
)
from repro.workloads.generator import effective_ws_bytes


class TestSuiteStructure:
    def test_twenty_two_apps(self):
        assert len(ALL_APPS) == 22
        assert len(RESOURCE_SENSITIVE) == 11
        assert len(RESOURCE_INSENSITIVE) == 11

    def test_paper_abbreviations_present(self):
        abbrs = {a.abbr for a in ALL_APPS}
        expected = {
            "BLK", "CFD", "DTC", "ESP", "FDTD", "HST", "KMN", "LBM",
            "SPMV", "STE", "STM", "BAK", "BFS", "B+T", "GAU", "LUD",
            "MUM", "NEED", "PTF", "PATH", "SGM", "SRAD",
        }
        assert abbrs == expected

    def test_suites_match_sensitivity(self):
        assert all(a.sensitive for a in RESOURCE_SENSITIVE)
        assert not any(a.sensitive for a in RESOURCE_INSENSITIVE)

    def test_kernel_names_from_table3(self):
        assert get_app("CFD").kernel == "cuda_compute_flux"
        assert get_app("KMN").kernel == "invert_mapping"
        assert get_app("SGM").kernel == "mysgemmNT"

    def test_unknown_abbr(self):
        with pytest.raises(KeyError):
            get_app("NOPE")

    def test_full_suite_loads(self):
        suite = full_suite()
        assert len(suite) == 22
        for workload in suite:
            verify_kernel(workload.kernel)


class TestGeneratedKernels:
    @pytest.mark.parametrize("abbr", [a.abbr for a in ALL_APPS])
    def test_kernel_verifies(self, abbr):
        verify_kernel(load_workload(abbr).kernel)

    @pytest.mark.parametrize("abbr", ["CFD", "KMN", "HST", "GAU"])
    def test_executes_functionally(self, abbr):
        w = load_workload(abbr)
        mem = GlobalMemory(w.kernel, w.param_sizes)
        run_grid(w.kernel, mem, grid_blocks=2)
        out = mem.read_buffer("output", DType.F32, w.kernel.block_size)
        assert np.all(np.isfinite(out))
        assert np.any(out != 0)

    def test_register_demand_tracks_live_values(self):
        cfd = load_workload("CFD")
        gau = load_workload("GAU")
        assert register_demand(cfd.kernel) > register_demand(gau.kernel)

    def test_heavy_apps_exceed_cap(self):
        """CFD/DTC/STE/FDTD demand more than 63 regs: spills survive CRAT."""
        for abbr in ("CFD", "DTC", "STE", "FDTD"):
            demand = register_demand(load_workload(abbr).kernel)
            assert demand > FERMI.max_reg_per_thread, abbr

    def test_default_optimal_apps(self):
        """STM/SPMV/KMN/LBM: default register count equals the demand."""
        for abbr in ("STM", "SPMV", "KMN", "LBM"):
            w = load_workload(abbr)
            assert w.default_reg is None, abbr
            usage = collect_resource_usage(w.kernel, FERMI)
            assert usage.default_reg == register_demand(w.kernel), abbr

    def test_shared_memory_only_when_declared(self):
        dtc = load_workload("DTC")
        blk = load_workload("BLK")
        assert dtc.kernel.shared_bytes() > 0
        assert blk.kernel.shared_bytes() == 0

    def test_barrier_apps_have_bar(self):
        hst = load_workload("HST")
        from repro.ptx import Opcode

        assert any(i.opcode is Opcode.BAR for i in hst.kernel.instructions())

    def test_param_sizes_cover_addresses(self):
        """Streaming loads must stay within the declared buffer."""
        for abbr in ("LBM", "SPMV", "BLK"):
            app = get_app(abbr)
            sizes = param_sizes(app)
            iters = app.outer_iters * app.inner_iters
            max_offset = (
                app.grid_blocks * app.block_size * 4
                * app.stream_loads * (iters + 1)
            )
            assert sizes["stream"] >= max_offset, abbr


class TestKernelSharing:
    def test_one_kernel_per_app_and_scale(self):
        """Each call builds its own workload around the one kernel
        generated for that app and input scale."""
        first, second = load_workload("GAU"), load_workload("GAU")
        assert first is not second
        assert first.kernel is second.kernel
        scaled = load_workload("GAU", input_scale=2.0)
        assert scaled.kernel is not first.kernel
        assert scaled.kernel.fingerprint() != first.kernel.fingerprint()


class TestInputScaling:
    def test_input_scale_changes_ws(self):
        app = get_app("CFD")
        small = effective_ws_bytes(app, 0.5)
        large = effective_ws_bytes(app, 2.0)
        assert large > small

    def test_inputs_for_studied_apps(self):
        cfd_inputs = inputs_for("CFD")
        blk_inputs = inputs_for("BLK")
        assert len(cfd_inputs) == 3
        assert len(blk_inputs) == 4
        for name, workload in cfd_inputs:
            verify_kernel(workload.kernel)

    def test_inputs_for_unknown(self):
        with pytest.raises(KeyError):
            inputs_for("KMN")

    def test_scaled_kernel_still_runs(self):
        app = get_app("CFD")
        kernel = generate_kernel(app, input_scale=1.25)
        mem = GlobalMemory(kernel, param_sizes(app, 1.25))
        run_grid(kernel, mem, grid_blocks=2)
        out = mem.read_buffer("output", DType.F32, 64)
        assert np.all(np.isfinite(out))


class TestWorkingSets:
    def test_kmn_working_set_near_l1(self):
        """KMN's per-block footprint ~ the whole L1 (thrashes at TLP>=2)."""
        ws = effective_ws_bytes(get_app("KMN"))
        assert FERMI.l1.size_bytes // 2 <= ws <= FERMI.l1.size_bytes

    def test_insensitive_apps_small_footprint(self):
        for app in RESOURCE_INSENSITIVE:
            ws = effective_ws_bytes(app)
            assert ws * 4 <= FERMI.l1.size_bytes * 2, app.abbr
