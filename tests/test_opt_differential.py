"""Pass-output differential tests against the golden ledger.

Every driver-based pass in :mod:`repro.opt` must reproduce the output
its frozen pre-driver implementation produced — same output kernel
(sha256 of the canonical printed form), same counters — as pinned in
``tools/ledger.json`` while both implementations still agreed.  The
tier-1 suite checks the example corpus plus a sample of suite apps;
``tools/ledger_gate.py`` checks all 22 apps.
"""

from __future__ import annotations

import pytest

from repro import opt
from repro.ptx import print_kernel
from repro.workloads import load_workload

from .ledger import assert_in_ledger, ledger_gate

SAMPLE_APPS = ["GAU", "KMN", "SPMV", "MUM", "CFD", "STM"]


def _corpus():
    yield from ledger_gate.example_kernels()
    for abbr in SAMPLE_APPS:
        yield abbr, load_workload(abbr).kernel


CORPUS = list(_corpus())


@pytest.mark.parametrize("name,kernel", CORPUS,
                         ids=[name for name, _ in CORPUS])
@pytest.mark.parametrize("label,fn,counters", ledger_gate.PASSES,
                         ids=[p[0] for p in ledger_gate.PASSES])
def test_driver_pass_bit_identical_to_legacy(
    name, kernel, label, fn, counters
):
    assert_in_ledger(
        "opt", ledger_gate.opt_key(name, label),
        ledger_gate.pass_entry(fn(kernel), counters),
    )


def test_optimize_kernel_converges_without_warning(recwarn):
    """The default budget reaches the fixpoint on the whole corpus —
    no structured truncation warning fires."""
    from repro.ir import RewriteBudgetWarning

    for _, kernel in CORPUS:
        opt.optimize_kernel(kernel)
    assert not [w for w in recwarn.list
                if isinstance(w.message, RewriteBudgetWarning)]


def test_minreg_lowers_maxlive_and_is_idempotent():
    """minreg-sched lowers MaxLive on a meaningful share of the corpus
    and is idempotent (re-scheduling its own output moves nothing).

    The scheduler is a greedy heuristic: it may raise pressure on an
    adversarial block (EXPERIMENTS.md reports those honestly), so the
    requirement is net wins, not per-kernel monotonicity.
    """
    from repro.cfg import CFG, LivenessInfo
    from repro.opt import schedule_for_minreg

    def max_live(kernel):
        return LivenessInfo(kernel, CFG(kernel)).max_pressure()

    lowered = 0
    for name, kernel in CORPUS:
        result = schedule_for_minreg(kernel)
        if max_live(result.kernel) < max_live(kernel):
            lowered += 1
        again = schedule_for_minreg(result.kernel)
        assert print_kernel(again.kernel) == print_kernel(result.kernel)
        assert again.moved_instructions == 0
    assert lowered >= 3  # it must actually help somewhere
