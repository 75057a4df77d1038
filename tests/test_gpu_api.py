"""Top-level simulation API and bench-driver tests."""

import dataclasses

import pytest

from repro.arch import FERMI, KEPLER
from repro.bench import evaluate_app
from repro.core import (
    collect_resource_usage,
    default_allocation,
    opt_tlp_from_profile,
)
from repro.engine import EvaluationEngine
from repro.sim import PackedGrid, simulate, simulate_traces, trace_grid
from repro.sim.stats import SimResult
from repro.workloads import load_workload


@pytest.fixture(scope="module")
def gau():
    return load_workload("GAU")


class TestSimulateAPI:
    def test_default_grid_is_two_waves(self, gau):
        result = simulate(gau.kernel, FERMI, tlp=2, param_sizes=gau.param_sizes)
        assert result.blocks_executed == 2 * FERMI.max_blocks_per_sm

    def test_traces_reusable_across_tlp(self, gau):
        traces = trace_grid(gau.kernel, FERMI, 6, gau.param_sizes)
        r1 = simulate_traces(traces, FERMI, 1)
        r2 = simulate_traces(traces, FERMI, 2)
        assert r1.instructions == r2.instructions
        assert r1.cycles != r2.cycles

    def test_simulate_matches_trace_path(self, gau):
        direct = simulate(gau.kernel, FERMI, tlp=2, grid_blocks=6,
                          param_sizes=gau.param_sizes)
        traces = trace_grid(gau.kernel, FERMI, 6, gau.param_sizes)
        via_traces = simulate_traces(traces, FERMI, 2)
        via_packed = simulate_traces(PackedGrid(traces, FERMI), FERMI, 2)
        assert direct.cycles == via_traces.cycles
        assert dataclasses.asdict(via_packed) == dataclasses.asdict(via_traces)

    def test_packed_grid_replays_only_under_its_config(self, gau):
        traces = trace_grid(gau.kernel, FERMI, 2, gau.param_sizes)
        with pytest.raises(ValueError, match="another config"):
            simulate_traces(PackedGrid(traces, FERMI), KEPLER, 1)

    def test_result_is_simresult(self, gau):
        result = simulate(gau.kernel, FERMI, tlp=1, grid_blocks=2,
                          param_sizes=gau.param_sizes)
        assert isinstance(result, SimResult)
        assert result.energy_nj > 0


class TestProfiling:
    def test_profile_keys_and_optimum(self, gau):
        usage = collect_resource_usage(gau.kernel, FERMI)
        allocation = default_allocation(gau.kernel, usage)
        profile = EvaluationEngine(disk_cache="").profile_tlp(
            allocation.kernel, FERMI, 4, gau.grid_blocks, gau.param_sizes
        )
        assert set(profile) == {1, 2, 3, 4}
        opt = opt_tlp_from_profile(profile)
        assert profile[opt].cycles == min(r.cycles for r in profile.values())

    def test_profile_rejects_bad_range(self, gau):
        with pytest.raises(ValueError):
            EvaluationEngine(disk_cache="").profile_tlp(gau.kernel, FERMI, 0)


class TestBenchDriver:
    def test_evaluation_consistency(self):
        ev = evaluate_app("GAU")
        # Speedups derive from the shared baseline.
        assert ev.speedup("opttlp") == pytest.approx(1.0)
        assert ev.tlp_of("crat") <= ev.tlp_of("maxtlp")
        assert 0 < ev.register_utilization_of("crat") <= 1.0

    def test_unknown_scheme(self):
        ev = evaluate_app("GAU")
        with pytest.raises(KeyError):
            ev.speedup("warp9")
