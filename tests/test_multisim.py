"""Multi-SM simulation tests (chip-level validation mode)."""

import dataclasses

import pytest

from repro.arch import FERMI
from repro.ptx.isa import LatencyClass, Opcode
from repro.sim import (
    BlockTrace,
    WarpOp,
    makespan,
    simulate_multi_sm,
    simulate_traces,
    trace_grid,
)
from repro.workloads import load_workload

from .ledger import assert_in_ledger, ledger_gate


@pytest.fixture(scope="module")
def hst_traces():
    workload = load_workload("HST")
    return workload, trace_grid(
        workload.kernel, FERMI, workload.grid_blocks, workload.param_sizes
    )


class TestMultiSM:
    def test_all_blocks_execute_once(self, hst_traces):
        workload, traces = hst_traces
        results = simulate_multi_sm(traces, FERMI, tlp=2, num_sms=4)
        assert sum(r.blocks_executed for r in results) == len(traces)

    def test_all_instructions_issue(self, hst_traces):
        workload, traces = hst_traces
        results = simulate_multi_sm(traces, FERMI, tlp=2, num_sms=4)
        expected = sum(t.instruction_count for t in traces)
        assert sum(r.instructions for r in results) == expected

    def test_sm_balance(self, hst_traces):
        """Identical blocks dealt round-robin: SMs finish near each other."""
        workload, traces = hst_traces
        results = simulate_multi_sm(traces, FERMI, tlp=2, num_sms=4)
        cycles = [r.cycles for r in results]
        assert max(cycles) <= min(cycles) * 1.25

    def test_more_sms_never_slower(self, hst_traces):
        workload, traces = hst_traces
        two = makespan(simulate_multi_sm(traces, FERMI, tlp=2, num_sms=2))
        four = makespan(simulate_multi_sm(traces, FERMI, tlp=2, num_sms=4))
        assert four <= two * 1.05

    def test_single_sm_mode_is_representative(self, hst_traces):
        """The per-SM throughput of the chip-level model must be within
        2x of the single-SM + interference-slice model's — the claim the
        per-figure benchmarks rely on."""
        workload, traces = hst_traces
        single = simulate_traces(traces, FERMI, tlp=2)
        multi = simulate_multi_sm(traces, FERMI, tlp=2, num_sms=4)
        per_block_single = single.cycles / single.blocks_executed
        per_block_multi = makespan(multi) / (len(traces) / 4)
        ratio = per_block_multi / per_block_single
        assert 0.5 <= ratio <= 2.0, ratio

    def test_invalid_args(self, hst_traces):
        workload, traces = hst_traces
        with pytest.raises(ValueError):
            simulate_multi_sm(traces, FERMI, tlp=0, num_sms=2)
        with pytest.raises(ValueError):
            simulate_multi_sm(traces, FERMI, tlp=2, num_sms=0)

    def test_fewer_blocks_than_sms(self, hst_traces):
        workload, traces = hst_traces
        results = simulate_multi_sm(traces[:2], FERMI, tlp=2, num_sms=8)
        assert sum(r.blocks_executed for r in results) == 2

    def test_one_result_per_sm_including_traceless(self, hst_traces):
        """The result list always has ``num_sms`` entries; SMs the
        round-robin deal left without blocks report zero work (the old
        code silently dropped them, so per-SM indexing was off)."""
        workload, traces = hst_traces
        results = simulate_multi_sm(traces[:3], FERMI, tlp=2, num_sms=8)
        assert len(results) == 8
        for idx, result in enumerate(results):
            if idx < 3:  # round-robin: blocks 0..2 land on SMs 0..2
                assert result.blocks_executed == 1
                assert result.cycles > 0
            else:
                assert result.blocks_executed == 0
                assert result.instructions == 0
                assert result.cycles == 0.0

    def test_traceless_sm_not_charged_chip_makespan(self, hst_traces):
        """Regression for the ``finish_at[idx] > 0`` sentinel bug: an
        SM that finishes at cycle 0 (no blocks) must report 0 cycles,
        not inherit the chip-wide final clock."""
        workload, traces = hst_traces
        results = simulate_multi_sm(traces[:1], FERMI, tlp=2, num_sms=4)
        chip = makespan(results)
        assert chip > 0
        assert [r.cycles for r in results[1:]] == [0.0, 0.0, 0.0]

    def test_lockstep_clock_bounds_per_sm_finish(self, hst_traces):
        """Lock-step global clock: every SM's reported finish time is
        bounded by the chip makespan, and busy SMs finish strictly
        after cycle 0."""
        workload, traces = hst_traces
        results = simulate_multi_sm(traces, FERMI, tlp=2, num_sms=4)
        chip = makespan(results)
        for result in results:
            assert 0 < result.cycles <= chip

    def test_event_jump_terminates_at_minimum_tlp(self, hst_traces):
        """TLP=1 maximizes no-issue cycles (a single warp per SM is
        stalled most of the time); the clock must jump to the earliest
        pending event rather than crawling, and still conserve work."""
        workload, traces = hst_traces
        results = simulate_multi_sm(traces, FERMI, tlp=1, num_sms=4)
        assert sum(r.blocks_executed for r in results) == len(traces)
        assert all(r.idle_cycles >= 0 for r in results)
        # Stalls exist at TLP=1 but the jump keeps them accounted, not
        # simulated cycle-by-cycle (the run above finishing quickly is
        # itself the evidence; correctness is the conserved work).
        assert makespan(results) > 0

    def test_runs_match_ledger(self, hst_traces):
        """Every SM of the runs above reproduces the golden ledger."""
        workload, traces = hst_traces
        for label, source, end, tlp, num_sms in ledger_gate.MULTI_SM_RUNS:
            results = simulate_multi_sm(traces[:end], FERMI, tlp,
                                        num_sms=num_sms)
            for sm, result in enumerate(results):
                assert_in_ledger(
                    "multi_sm",
                    ledger_gate.multi_sm_key(label, tlp, num_sms, sm),
                    ledger_gate.sim_entry(result),
                )

    @pytest.mark.parametrize("tlp", [1, 2, 3])
    def test_one_sm_chip_matches_own_clock(self, hst_traces, tlp):
        """On a one-SM chip (whole L2 = the slice) the chip loop
        reproduces the lane's own-clock run field for field; only the
        energy, which the chip mode does not attach, differs."""
        workload, traces = hst_traces
        chip = dataclasses.replace(FERMI, num_sms=1, l2_interference=1)
        own = simulate_traces(traces, chip, tlp)
        sm, = simulate_multi_sm(traces, chip, tlp)
        assert dataclasses.replace(own, energy_nj=0.0) == sm


def test_unmatched_barrier_deadlocks():
    """The first warp waits at a ``bar`` the second warp never reaches,
    so it is never released: the own-clock run and the chip loop both
    raise instead of returning a truncated result."""
    add = WarpOp(LatencyClass.ALU, Opcode.ADD, "%r1", ())
    bar = WarpOp(LatencyClass.BARRIER, Opcode.BAR, None, ())
    trace = BlockTrace(block_id=0, block_size=64,
                       warp_ops=[[bar, add], [add, add, add]],
                       instruction_count=5)
    with pytest.raises(RuntimeError, match="simulation deadlock"):
        simulate_traces([trace], FERMI, 1)
    with pytest.raises(RuntimeError, match="simulation deadlock"):
        simulate_multi_sm([trace], FERMI, 1, num_sms=1)
