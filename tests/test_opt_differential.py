"""Pass-output differential tests against the golden ledger.

Every registry pipeline of an ``opt`` ledger label must reproduce the
output the frozen pre-driver passes produced — same output kernel
(sha256 of the canonical printed form), same counters — as pinned in
``tools/ledger.json`` while both implementations still agreed.  The
tier-1 suite checks the example corpus plus a sample of suite apps;
``tools/ledger_gate.py`` checks all 22 apps.
"""

from __future__ import annotations

import pytest

from repro.ir import run_pipeline
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
@pytest.mark.parametrize("label,spec,counters", ledger_gate.PASSES,
                         ids=[p[0] for p in ledger_gate.PASSES])
def test_driver_pass_bit_identical_to_legacy(
    name, kernel, label, spec, counters
):
    assert_in_ledger(
        "opt", ledger_gate.opt_key(name, label),
        ledger_gate.pass_entry(kernel, spec, counters),
    )


def test_registry_passes_converge_without_warning(recwarn):
    """The driver's default budget reaches the fixpoint of every
    registered pass on the whole corpus — no structured truncation
    warning fires."""
    from repro.ir import RewriteBudgetWarning, available_passes

    for _, kernel in CORPUS:
        run_pipeline(kernel, ",".join(available_passes()))
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

    def max_live(kernel):
        return LivenessInfo(kernel, CFG(kernel)).max_pressure()

    lowered = 0
    for name, kernel in CORPUS:
        result = run_pipeline(kernel, "minreg-sched")
        if max_live(result.kernel) < max_live(kernel):
            lowered += 1
        again = run_pipeline(result.kernel, "minreg-sched")
        assert print_kernel(again.kernel) == print_kernel(result.kernel)
        assert again.total_applied == 0
    assert lowered >= 3  # it must actually help somewhere
