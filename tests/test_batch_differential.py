"""Differential tests: the timing core vs the golden ledger.

Every design point of the corpus staircase — every traceable
``examples/*.ptx`` kernel plus all 22 suite apps, across each kernel's
full TLP staircase (1..max_tlp) — must reproduce its entry in
``tools/ledger.json``, recorded from the scalar simulator this core
replaced: the same cycles and the same sha256 over every
:class:`~repro.sim.stats.SimResult` field.  The traces the staircase
replays must equal their ``traces`` entries too.

The second half exercises the run loop directly: the event-time jump
on no-issue cycles and an empty batch.
"""

import pytest

from repro.arch.config import get_config
from repro.sim import simulate_traces, simulate_traces_batched
from repro.workloads import full_suite

from .ledger import LEDGER, assert_in_ledger, ledger_gate

CONFIG = get_config("fermi")

_cases = {}


def _example_names():
    names = []
    for name, kernel in ledger_gate.example_kernels():
        try:
            _cases[name] = ledger_gate.example_case(kernel)
        except Exception:
            # Untraceable examples can never reach the simulator.
            continue
        names.append(name)
    return names


def _load_case(name):
    if name not in _cases:
        _cases[name] = ledger_gate.app_case(name)
    return _cases[name]


CORPUS = _example_names() + [w.abbr for w in full_suite()]


@pytest.mark.parametrize("name", CORPUS)
def test_full_staircase_bit_identical_gto(name):
    traces, max_tlp = _load_case(name)
    tlps = list(range(1, max_tlp + 1))
    results = simulate_traces_batched(traces, CONFIG, tlps)
    for tlp, result in zip(tlps, results):
        assert_in_ledger(
            "staircase", ledger_gate.staircase_key(name, tlp),
            ledger_gate.sim_entry(result),
        )
    beyond = ledger_gate.staircase_key(name, max_tlp + 1)
    assert beyond not in LEDGER["staircase"], f"{name}: staircase shrank"


@pytest.mark.parametrize("name", CORPUS)
def test_traces_bit_identical(name):
    """The functional traces themselves equal the ledger's, recorded
    running the blocks of each grid one by one."""
    traces, _ = _load_case(name)
    assert_in_ledger(
        "traces", ledger_gate.trace_key(name, len(traces)),
        ledger_gate.trace_entry(traces),
    )


# ----------------------------------------------------------------------
# The run loop.
# ----------------------------------------------------------------------
class TestBatchClock:
    @pytest.fixture(scope="class")
    def gau(self):
        return _load_case("GAU")

    def test_no_issue_stalls_accounted(self, gau):
        """At TLP=1 a memory-bound kernel has cycles where no warp can
        issue; the event jump must account them as idle cycles exactly
        as the ledger recorded them (asserted here directly for the
        loop's stall path, through the single-point route)."""
        traces, _ = gau
        single = simulate_traces(traces, CONFIG, 1)
        assert_in_ledger(
            "staircase", ledger_gate.staircase_key("GAU", 1),
            ledger_gate.sim_entry(single),
        )
        assert single.idle_cycles > 0

    def test_empty_batch_rejected(self, gau):
        traces, _ = gau
        with pytest.raises(ValueError):
            simulate_traces_batched(traces, CONFIG, [])
