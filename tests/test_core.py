"""CRAT core tests: params, design space, TPSC, baselines, optimizer."""

import pytest

from repro.arch import FERMI, KEPLER, MemoryCosts, measure_costs
from repro.core import (
    CRATOptimizer,
    DesignPoint,
    NVCC_DEFAULT_REG_CAP,
    collect_resource_usage,
    enumerate_space,
    prune,
    run_baselines,
    select_best,
    tlp_gain,
)
from repro.core.tpsc import ScoredPoint, spill_cost
from repro.regalloc import allocate, register_demand
from repro.workloads import load_workload
from tests.conftest import build_pressure_kernel


@pytest.fixture(scope="module")
def cfd():
    return load_workload("CFD")


@pytest.fixture(scope="module")
def cfd_usage(cfd):
    return collect_resource_usage(cfd.kernel, FERMI, default_reg=cfd.default_reg)


class TestResourceUsage:
    def test_table1_parameters_present(self, cfd, cfd_usage):
        usage = cfd_usage
        assert usage.max_reg == register_demand(cfd.kernel)
        assert usage.min_reg == FERMI.min_reg_per_thread
        assert usage.block_size == cfd.kernel.block_size
        assert usage.shm_size == cfd.kernel.shared_bytes()
        assert usage.max_tlp >= 1
        assert usage.default_reg == cfd.default_reg

    def test_default_reg_capped(self, pressure_kernel):
        usage = collect_resource_usage(pressure_kernel, FERMI)
        assert usage.default_reg <= NVCC_DEFAULT_REG_CAP

    def test_reg_range(self, cfd_usage):
        rng = cfd_usage.reg_range()
        assert rng.start <= cfd_usage.min_reg
        assert rng.stop == cfd_usage.max_reg + 1


class TestDesignSpace:
    def test_pruned_is_subset_of_full(self, cfd_usage):
        full = set(enumerate_space(FERMI, cfd_usage))
        for point in prune(FERMI, cfd_usage, opt_tlp=6):
            # Pruned regs are clamped to the nvcc cap; the full space too.
            assert point.tlp <= 6
            assert DesignPoint(point.reg, point.tlp) in full or point.reg == min(
                cfd_usage.max_reg, FERMI.max_reg_per_thread
            )

    def test_rightmost_rule(self, cfd_usage):
        """For each kept TLP, no feasible point has more registers."""
        from repro.arch import max_reg_at_tlp

        for point in prune(FERMI, cfd_usage, opt_tlp=8):
            cap = min(
                max_reg_at_tlp(FERMI, point.tlp, cfd_usage.shm_size,
                               cfd_usage.block_size),
                cfd_usage.max_reg,
                FERMI.max_reg_per_thread,
            )
            assert point.reg == cap

    def test_opt_tlp_ceiling_respected(self, cfd_usage):
        for opt in (1, 2, 4):
            for point in prune(FERMI, cfd_usage, opt_tlp=opt):
                assert point.tlp <= opt

    def test_unique_regs(self, cfd_usage):
        points = prune(FERMI, cfd_usage, opt_tlp=8)
        regs = [p.reg for p in points]
        assert len(regs) == len(set(regs))

    def test_staircase_monotone(self, cfd_usage):
        points = sorted(prune(FERMI, cfd_usage, opt_tlp=8), key=lambda p: p.tlp)
        regs = [p.reg for p in points]
        assert regs == sorted(regs, reverse=True)

    def test_invalid_opt_tlp(self, cfd_usage):
        with pytest.raises(ValueError):
            prune(FERMI, cfd_usage, opt_tlp=0)

    def test_kepler_space_larger(self, cfd):
        fermi_usage = collect_resource_usage(cfd.kernel, FERMI, cfd.default_reg)
        kepler_usage = collect_resource_usage(cfd.kernel, KEPLER, cfd.default_reg)
        fermi_points = prune(FERMI, fermi_usage, opt_tlp=8)
        kepler_points = prune(KEPLER, kepler_usage, opt_tlp=8)
        # Kepler's doubled register file sustains more TLP at equal regs.
        assert max(p.tlp for p in kepler_points) >= max(p.tlp for p in fermi_points)


class TestTPSC:
    def test_tlp_gain_decreases(self):
        gains = [tlp_gain(t, 128, 1536) for t in range(1, 9)]
        assert gains == sorted(gains, reverse=True)
        assert all(0 < g < 1 for g in gains)

    def test_tlp_gain_formula(self):
        # 1 - TLP*BS/(TLP*BS + MaxThread), paper Section 6.
        assert tlp_gain(4, 128, 1536) == pytest.approx(1 - 512 / (512 + 1536))

    def test_spill_cost_zero_without_spills(self, pressure_kernel):
        costs = measure_costs(FERMI)
        alloc = allocate(pressure_kernel, register_demand(pressure_kernel))
        assert spill_cost(alloc, costs) == 0.0

    def test_spill_cost_positive_with_spills(self, pressure_kernel):
        costs = measure_costs(FERMI)
        alloc = allocate(pressure_kernel, register_demand(pressure_kernel) - 8,
                         remat=False)
        assert spill_cost(alloc, costs) > 0

    def test_spill_cost_sums_all_three_terms(self):
        # Num_local*Cost_local + Num_shm*Cost_shm + Num_others*Cost_other
        # (Section 6), Num_others = address + rematerialization insts.
        # GAU at 16 registers with 4 KB of spare shared memory has all
        # four counts nonzero, and the costs are distinct, so dropping
        # or swapping any term changes the sum.
        alloc = allocate(load_workload("GAU").kernel, 16,
                         spare_shm_bytes=4096)
        assert alloc.num_local_insts and alloc.num_shared_insts
        assert alloc.num_address_insts and alloc.num_remat_insts
        n_others = alloc.num_address_insts + alloc.num_remat_insts
        for costs in (measure_costs(FERMI), MemoryCosts(3.0, 5.0, 7.0)):
            assert spill_cost(alloc, costs) == (
                alloc.num_local_insts * costs.cost_local
                + alloc.num_shared_insts * costs.cost_shared
                + n_others * costs.cost_other
            )

    def test_select_best_prefers_zero_cost_high_tlp(self, pressure_kernel):
        costs = measure_costs(FERMI)
        demand = register_demand(pressure_kernel)
        clean = allocate(pressure_kernel, demand)
        dirty = allocate(pressure_kernel, demand - 8, remat=False)
        from repro.core.tpsc import score

        scored = [
            score(DesignPoint(demand - 8, 6), dirty, FERMI, 64, costs),
            score(DesignPoint(demand, 4), clean, FERMI, 64, costs),
        ]
        assert select_best(scored).point.reg == demand

    def test_select_best_tie_breaks_to_higher_tlp(self, pressure_kernel):
        costs = measure_costs(FERMI)
        demand = register_demand(pressure_kernel)
        clean = allocate(pressure_kernel, demand)
        from repro.core.tpsc import score

        scored = [
            score(DesignPoint(demand, 2), clean, FERMI, 64, costs),
            score(DesignPoint(demand, 5), clean, FERMI, 64, costs),
        ]
        assert select_best(scored).point.tlp == 5

    def test_select_best_empty(self):
        with pytest.raises(ValueError):
            select_best([])


class TestBaselines:
    def test_maxtlp_and_opttlp(self, cfd):
        baselines = run_baselines(
            cfd.kernel, FERMI,
            grid_blocks=cfd.grid_blocks, param_sizes=cfd.param_sizes,
        )
        maxtlp = baselines["maxtlp"]
        opttlp = baselines["opttlp"]
        assert opttlp.tlp <= maxtlp.tlp
        assert opttlp.sim.cycles <= maxtlp.sim.cycles
        assert opttlp.profile is not None
        assert maxtlp.reg == opttlp.reg

    def test_profile_covers_full_range(self, cfd):
        baselines = run_baselines(
            cfd.kernel, FERMI,
            grid_blocks=cfd.grid_blocks, param_sizes=cfd.param_sizes,
        )
        profile = baselines["opttlp"].profile
        assert set(profile) == set(range(1, max(profile) + 1))


class TestOptimizer:
    @pytest.fixture(scope="class")
    def result(self, cfd):
        optimizer = CRATOptimizer(FERMI)
        return optimizer.optimize(
            cfd.kernel,
            default_reg=cfd.default_reg,
            grid_blocks=cfd.grid_blocks,
            param_sizes=cfd.param_sizes,
        )

    def test_chosen_point_feasible(self, result):
        from repro.arch import compute_occupancy

        alloc = result.chosen.allocation
        total_shm = result.usage.shm_size + alloc.shm_spill_block_bytes
        occ = compute_occupancy(
            FERMI, alloc.reg_per_thread, total_shm, result.usage.block_size
        )
        assert occ.blocks >= result.tlp

    def test_not_slower_than_opttlp(self, result):
        assert result.speedup_vs("opttlp") >= 0.95

    def test_speedup_undefined_on_zero_cycles(self, result):
        import dataclasses

        broken = dataclasses.replace(
            result, sim=dataclasses.replace(result.sim, cycles=0.0)
        )
        with pytest.raises(ValueError, match="zero cycles"):
            broken.speedup_vs("opttlp")

    def test_candidates_scored(self, result):
        assert result.candidates
        assert all(isinstance(s, ScoredPoint) for s in result.candidates)

    def test_variant_labels(self, cfd, result):
        assert result.variant == "crat"
        local = CRATOptimizer(FERMI, enable_shm_spill=False).optimize(
            cfd.kernel, default_reg=cfd.default_reg,
            grid_blocks=cfd.grid_blocks, param_sizes=cfd.param_sizes,
            baselines=result.baselines,
        )
        assert local.variant == "crat-local"
        assert local.chosen.allocation.num_shared_insts == 0

    def test_static_mode(self, cfd, result):
        static = CRATOptimizer(FERMI, opt_tlp_mode="static").optimize(
            cfd.kernel, default_reg=cfd.default_reg,
            grid_blocks=cfd.grid_blocks, param_sizes=cfd.param_sizes,
            baselines=result.baselines,
        )
        assert static.opt_tlp_source == "static"
        assert 1 <= static.opt_tlp

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            CRATOptimizer(FERMI, opt_tlp_mode="magic")
