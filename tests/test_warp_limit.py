"""Warp-level throttling (paper ref [2] granularity) tests."""

import pytest

from repro.arch import FERMI
from repro.core import collect_resource_usage, default_allocation
from repro.sim import simulate_traces, trace_grid
from repro.workloads import load_workload

from .ledger import assert_in_ledger, ledger_gate


def run(traces, tlp, warp_limit=None):
    return simulate_traces(traces, FERMI, tlp, warp_limit=warp_limit)


@pytest.fixture(scope="module")
def kmn_traces():
    workload = load_workload("KMN")
    usage = collect_resource_usage(
        workload.kernel, FERMI, default_reg=workload.default_reg
    )
    allocation = default_allocation(workload.kernel, usage)
    return trace_grid(
        allocation.kernel, FERMI, workload.grid_blocks, workload.param_sizes
    )


@pytest.fixture(scope="module")
def hst_traces():
    workload = load_workload("HST")  # uses barriers
    return trace_grid(workload.kernel, FERMI, workload.grid_blocks,
                      workload.param_sizes)


class TestWarpLimit:
    def test_all_instructions_still_issue(self, kmn_traces):
        free = run(kmn_traces, 4)
        limited = run(kmn_traces, 4, warp_limit=6)
        assert limited.instructions == free.instructions
        assert limited.blocks_executed == free.blocks_executed

    def test_limit_preserves_semantics_of_trace(self, kmn_traces):
        a = run(kmn_traces, 4, warp_limit=8)
        b = run(kmn_traces, 4, warp_limit=8)
        assert a.cycles == b.cycles  # deterministic

    def test_limit_improves_cache_locality(self, kmn_traces):
        free = run(kmn_traces, 4)
        limited = run(kmn_traces, 4, warp_limit=8)
        assert limited.l1_hit_rate > free.l1_hit_rate + 0.2

    def test_interior_optimum_exists(self, kmn_traces):
        cycles = {}
        for limit in (4, 8, 16, 32):
            cycles[limit] = run(kmn_traces, 4, warp_limit=limit).cycles
        best = min(cycles, key=cycles.get)
        assert best not in (4, 32)  # neither extreme wins

    def test_invalid_limit(self, kmn_traces):
        with pytest.raises(ValueError):
            run(kmn_traces, 2, warp_limit=0)

    def test_barrier_kernel_does_not_deadlock(self, hst_traces):
        # HST's blocks synchronize; the deadlock guard must admit parked
        # warps so every barrier completes.
        result = run(hst_traces, 2, warp_limit=4)
        assert result.blocks_executed == len(hst_traces)

    def test_huge_limit_equals_unlimited(self, kmn_traces):
        free = run(kmn_traces, 2)
        huge = run(kmn_traces, 2, warp_limit=1000)
        assert free.cycles == huge.cycles

    def test_points_match_ledger(self, kmn_traces, hst_traces):
        traces = {"KMN@alloc": kmn_traces, "HST": hst_traces}
        for source, tlp, limit in ledger_gate.WARP_LIMIT_POINTS:
            result = run(traces[source], tlp, warp_limit=limit)
            assert_in_ledger(
                "warp_limit", ledger_gate.warp_limit_key(source, tlp, limit),
                ledger_gate.sim_entry(result),
            )
